//! The per-rank process handle.
//!
//! A [`Proc`] is what a rank's program code holds: it owns the rank's
//! virtual clock, forwards compute/communication requests to the shared
//! cluster model, and tallies [`crate::ProcStats`]. All MPI entry points
//! charge a small fixed software overhead, like real MPI library calls.

use crate::collectives::{CollectiveEntry, CollectiveResult, CollectiveSlot, ReduceOp};
use crate::comm::{Comm, CommRegistry};
use crate::death::{DeathBoard, DeathUnwind};
use crate::p2p::{Mailbox, Message, RecvError, RecvInfo, ANY_SOURCE};
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
pub const MPI_CALL_OVERHEAD: Duration = Duration(120);

/// Shared immutable state between all ranks of a world.
pub(crate) struct WorldShared {
    pub cluster: Arc<Cluster>,
    pub mailboxes: Vec<Mailbox>,
    pub collective: CollectiveSlot,
    pub comms: CommRegistry,
    /// Fail-stop liveness flags, one per rank.
    pub board: DeathBoard,
}

impl WorldShared {
    /// Publish a rank's death: mark the board, then wake every blocked
    /// receiver and collective waiter so they re-examine their wait
    /// conditions against the new membership. Must run *after* the dying
    /// rank's last effects (sends, collective arrivals) are visible.
    pub(crate) fn announce_death(&self, rank: usize) {
        self.board.mark_dead(rank);
        for mb in &self.mailboxes {
            mb.wake_all();
        }
        self.collective.wake_all();
        self.comms.wake_all();
    }
}

/// Identifies the rendezvous group a pending collective belongs to, so the
/// event scheduler can route completion notifications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum GroupKey {
    /// The world collective slot.
    World,
    /// A sub-communicator slot, by communicator ID.
    Comm(u64),
    /// The `comm_split` rendezvous.
    Split,
}

/// The operation a rank latched on its first (yielding) poll. Entry effects
/// (fail-stop gate, call overhead, slot registration) already happened;
/// retries only attempt completion.
#[derive(Clone, Copy, Debug)]
enum PendingOp {
    Recv {
        src: usize,
        tag: i64,
        start: VirtualTime,
    },
    Collective {
        key: GroupKey,
        gen: u64,
        start: VirtualTime,
        entry: CollectiveEntry,
    },
    Split {
        gen: u64,
        start: VirtualTime,
        color: i64,
    },
}

/// What a yielded rank is waiting on, as the scheduler sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventWait {
    /// Blocked receive; `posted` is the clock after the call overhead
    /// (the completion floor: the receive finishes at
    /// `max(posted, arrival)`).
    Recv {
        src: usize,
        tag: i64,
        posted: VirtualTime,
    },
    /// Registered for a group rendezvous, waiting for the last arriver.
    Group(GroupKey),
}

/// Per-rank state that exists only under the event scheduler.
#[derive(Debug, Default)]
struct EventState {
    pending: Option<PendingOp>,
    /// Destinations of sends since the last yield (scheduler re-examines
    /// those ranks' blocked receives).
    sent_to: Vec<usize>,
    /// Completed sub-receives of an in-progress `waitall`.
    waitall_done: Vec<RecvInfo>,
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
    /// `Some` iff this rank runs under the event scheduler. Boxed so the
    /// thread backend pays one pointer, not the whole struct, on the VM
    /// hot loop's cache lines.
    event: Option<Box<EventState>>,
    shared: Arc<WorldShared>,
}

impl Proc {
    pub(crate) fn new(rank: usize, size: usize, shared: Arc<WorldShared>) -> Self {
        let death_at = shared.cluster.death_of(rank);
        Proc {
            rank,
            size,
            clock: VirtualTime::ZERO,
            stats: ProcStats::default(),
            sample_counter: 0,
            death_at,
            event: None,
            shared,
        }
    }

    /// Switch this rank to event-scheduler mode: blocking operations now
    /// return [`Poll::Pending`] instead of parking the thread.
    pub(crate) fn enable_event_mode(&mut self) {
        self.event = Some(Box::default());
    }

    /// What this rank is blocked on, if anything (event mode only).
    pub(crate) fn event_wait(&self) -> Option<EventWait> {
        match self.event.as_ref()?.pending? {
            PendingOp::Recv { src, tag, .. } => Some(EventWait::Recv {
                src,
                tag,
                // The clock froze at post time when the op latched.
                posted: self.clock,
            }),
            PendingOp::Collective { key, .. } => Some(EventWait::Group(key)),
            PendingOp::Split { .. } => Some(EventWait::Group(GroupKey::Split)),
        }
    }

    /// Move the send destinations accumulated since the last yield onto
    /// the end of `out`. The rank's buffer keeps its capacity, so the
    /// resume → drain cycle allocates nothing once both have grown.
    pub(crate) fn drain_sent_to(&mut self, out: &mut Vec<usize>) {
        out.append(&mut self.event.as_mut().expect("event mode").sent_to);
    }

    fn pending(&self) -> Option<PendingOp> {
        self.event.as_ref().and_then(|ev| ev.pending)
    }

    fn event_mut(&mut self) -> &mut EventState {
        self.event.as_mut().expect("event mode")
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
        self.shared.cluster.trace_lane(self.rank)
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> VirtualTime {
        self.clock
    }

    /// The cluster model this rank runs on.
    pub fn cluster(&self) -> &Cluster {
        &self.shared.cluster
    }

    /// Accounting so far.
    pub fn stats(&self) -> ProcStats {
        self.stats
    }

    /// Hostname-style identifier of the node hosting this rank (the
    /// `gethostname` analogue the rank-dependence analysis cares about).
    pub fn node_id(&self) -> usize {
        self.shared.cluster.topology().node_of(self.rank)
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

    /// Halt this rank: record the death, announce it to the world, and
    /// unwind with a [`DeathUnwind`] marker for [`crate::catch_death`].
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
        self.shared.announce_death(self.rank);
        crate::death::silence_death_panics();
        std::panic::panic_any(DeathUnwind {
            rank: self.rank,
            at,
        });
    }

    /// Latest scheduled death among this rank's peers (for wildcard
    /// receives whose every possible sender is dead).
    fn latest_peer_death(&self) -> VirtualTime {
        (0..self.size)
            .filter(|&r| r != self.rank)
            .filter_map(|r| self.shared.cluster.death_of(r))
            .max()
            .unwrap_or(self.clock)
    }

    /// Complete a receive whose peer fail-stopped: no message ever arrives,
    /// so the receive degrades to a timeout-shaped completion at
    /// `max(post, peer death) + death_timeout` with a zeroed payload.
    fn degraded_recv(&mut self, start: VirtualTime, src: usize, tag: i64) -> RecvInfo {
        let death = if src == ANY_SOURCE {
            self.latest_peer_death()
        } else {
            self.shared.cluster.death_of(src).unwrap_or(self.clock)
        };
        let timeout = self.shared.cluster.faults().death_timeout();
        self.clock = self.clock.max(death) + timeout;
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

    /// Take a matching message, death-aware when the fault plan kills any
    /// rank (the plain path stays untouched so healthy runs are
    /// bit-identical to pre-fail-stop builds).
    fn take_message(&mut self, src: usize, tag: i64) -> Result<Message, (usize, i64)> {
        if !self.shared.cluster.has_deaths() {
            return Ok(self.shared.mailboxes[self.rank].take_matching(src, tag));
        }
        match self.shared.mailboxes[self.rank].try_take_matching_failstop(
            src,
            tag,
            &self.shared.board,
            self.rank,
        ) {
            Ok(msg) => Ok(msg),
            Err(RecvError::PeerDead { src, tag }) => Err((src, tag)),
            Err(e) => panic!("rank {}: {e}", self.rank),
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
        let timeout = self.shared.cluster.faults().death_timeout();
        let mut next = (self.rank + 1) % self.size;
        while next != self.rank {
            match self.shared.cluster.death_of(next) {
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
            .shared
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

    /// Charge `d` against the compute account without noise modelling.
    pub fn charge_compute(&mut self, d: Duration) {
        self.clock += d;
        self.stats.compute_time += d;
    }

    /// Blocking send of `bytes` with `tag` and scalar `value` to `dest`.
    pub fn send(&mut self, dest: usize, bytes: u64, tag: i64, value: i64) {
        assert!(dest < self.size, "send to rank {dest} out of range");
        self.failstop_check();
        let start = self.clock;
        self.clock += MPI_CALL_OVERHEAD;
        let cost = self
            .shared
            .cluster
            .p2p_cost(self.rank, dest, bytes, self.clock);
        let msg = Message {
            src: self.rank,
            tag,
            bytes,
            sent_at: self.clock,
            arrives_at: self.clock + cost,
            value,
        };
        self.shared.mailboxes[dest].push(msg);
        if let Some(ev) = self.event.as_deref_mut() {
            ev.sent_to.push(dest);
        }
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
    /// On the thread backend this is always [`Poll::Ready`]; under the
    /// event scheduler it returns [`Poll::Pending`] until the matching
    /// message (or the peer's death) resolves the wait — re-call with the
    /// same arguments when resumed.
    pub fn recv(&mut self, src: usize, tag: i64) -> Poll<RecvInfo> {
        if self.event.is_some() {
            return self.poll_recv(src, tag, "recv");
        }
        Poll::Ready(self.recv_blocking(src, tag, "recv"))
    }

    /// Thread-backend receive: parks until a match exists.
    fn recv_blocking(&mut self, src: usize, tag: i64, name: &'static str) -> RecvInfo {
        self.failstop_check();
        let start = self.clock;
        self.clock += MPI_CALL_OVERHEAD;
        let msg = match self.take_message(src, tag) {
            Ok(msg) => msg,
            Err((src, tag)) => return self.degraded_recv(start, src, tag),
        };
        self.finish_recv(start, name, msg)
    }

    /// Event-scheduler receive. First call latches the entry effects
    /// (fail-stop gate, call overhead) and yields — a not-yet-resumed task
    /// with an earlier clock could still send an earlier-arriving match, so
    /// completing greedily here would pick the wrong message. Retries take
    /// the best match non-blockingly or degrade if the peer is dead.
    fn poll_recv(&mut self, src: usize, tag: i64, name: &'static str) -> Poll<RecvInfo> {
        let start = match self.pending() {
            None => {
                self.failstop_check();
                let start = self.clock;
                self.clock += MPI_CALL_OVERHEAD;
                self.event_mut().pending = Some(PendingOp::Recv { src, tag, start });
                return Poll::Pending;
            }
            Some(PendingOp::Recv { start, .. }) => start,
            Some(other) => panic!(
                "rank {}: resumed into a different op than it yielded on ({other:?})",
                self.rank
            ),
        };
        if let Some(msg) = self.shared.mailboxes[self.rank].poll_take_matching(src, tag) {
            self.event_mut().pending = None;
            return Poll::Ready(self.finish_recv(start, name, msg));
        }
        let peer_gone = if src == ANY_SOURCE {
            self.shared.board.all_peers_dead(self.rank)
        } else {
            self.shared.board.is_dead(src)
        };
        if peer_gone {
            self.event_mut().pending = None;
            return Poll::Ready(self.degraded_recv(start, src, tag));
        }
        Poll::Pending
    }

    /// Completion math shared by both backends: clock, stats, trace.
    fn finish_recv(&mut self, start: VirtualTime, name: &'static str, msg: Message) -> RecvInfo {
        self.clock = self.clock.max(msg.arrives_at);
        self.stats.mpi_time += self.clock - start;
        self.stats.msgs_received += 1;
        self.trace_span(Category::MPI, name, start, msg.bytes, msg.src as u64);
        RecvInfo {
            src: msg.src,
            tag: msg.tag,
            bytes: msg.bytes,
            value: msg.value,
            completed_at: self.clock,
        }
    }

    /// Nonblocking send: identical timing to [`Self::send`] (eager
    /// injection), returning a handle for MPI-style code shape.
    pub fn isend(
        &mut self,
        dest: usize,
        bytes: u64,
        tag: i64,
        value: i64,
    ) -> crate::nonblocking::SendRequest {
        self.send(dest, bytes, tag, value);
        crate::nonblocking::SendRequest {
            injected_at: self.clock,
        }
    }

    /// Complete a nonblocking send (free under the eager protocol).
    pub fn wait_send(&mut self, req: crate::nonblocking::SendRequest) {
        let _ = req;
    }

    /// Post a nonblocking receive. Complete it with [`Self::wait`]; work
    /// done between post and wait overlaps the transfer.
    pub fn irecv(&mut self, src: usize, tag: i64) -> crate::nonblocking::RecvRequest {
        self.failstop_check();
        self.clock += MPI_CALL_OVERHEAD;
        self.stats.mpi_time += MPI_CALL_OVERHEAD;
        crate::nonblocking::RecvRequest {
            src,
            tag,
            posted_at: self.clock,
        }
    }

    /// Complete a posted receive; completes at `max(now, arrival)` in
    /// virtual time. A yield point, like [`Self::recv`].
    pub fn wait(&mut self, req: crate::nonblocking::RecvRequest) -> Poll<RecvInfo> {
        if self.event.is_some() {
            return self.poll_recv(req.src, req.tag, "wait");
        }
        Poll::Ready(self.recv_blocking(req.src, req.tag, "wait"))
    }

    /// Complete several receives, in order. A yield point; under the event
    /// scheduler partial progress is kept across polls (requests are `Copy`,
    /// so re-submitting the same slice is free).
    pub fn waitall(&mut self, reqs: &[crate::nonblocking::RecvRequest]) -> Poll<Vec<RecvInfo>> {
        if self.event.is_none() {
            return Poll::Ready(
                reqs.iter()
                    .map(|r| self.recv_blocking(r.src, r.tag, "wait"))
                    .collect(),
            );
        }
        while self.event_mut().waitall_done.len() < reqs.len() {
            let req = reqs[self.event_mut().waitall_done.len()];
            match self.poll_recv(req.src, req.tag, "wait") {
                Poll::Ready(info) => self.event_mut().waitall_done.push(info),
                Poll::Pending => return Poll::Pending,
            }
        }
        Poll::Ready(std::mem::take(&mut self.event_mut().waitall_done))
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
        if self.event.is_some() {
            if self.pending().is_none() {
                self.send(dest, send_bytes, tag, value);
            }
            return self.poll_recv(src, tag, "recv");
        }
        self.send(dest, send_bytes, tag, value);
        Poll::Ready(self.recv_blocking(src, tag, "recv"))
    }

    /// The group key a collective registers under (world slot or the
    /// sub-communicator's slot).
    fn group_key(comm: Option<&Comm>) -> GroupKey {
        match comm {
            None => GroupKey::World,
            Some(c) => GroupKey::Comm(c.id()),
        }
    }

    /// Rendezvous on the world slot (`comm == None`) or a sub-communicator
    /// slot. Handles both backends; the entry/exit math is shared with the
    /// slot itself, so the two backends are bit-identical by construction.
    fn group_collective(
        &mut self,
        comm: Option<&Comm>,
        entry: CollectiveEntry,
    ) -> Poll<CollectiveResult> {
        let sub = comm.is_some() as u64;
        if self.event.is_none() {
            self.failstop_check();
            let start = self.clock;
            let (name, bytes) = (collective_name(entry.op), entry.bytes);
            let res = match comm {
                None => {
                    self.shared
                        .collective
                        .enter(&self.shared.cluster, &self.shared.board, entry)
                }
                Some(c) => {
                    self.shared
                        .comms
                        .slot(c)
                        .enter(&self.shared.cluster, &self.shared.board, entry)
                }
            }
            .unwrap_or_else(|e| panic!("rank {}: {e}", self.rank));
            self.apply_collective(start, name, bytes, sub, res);
            return Poll::Ready(res);
        }

        let key = Self::group_key(comm);
        match self.pending() {
            None => {
                self.failstop_check();
                let start = self.clock;
                let gen = match comm {
                    None => self.shared.collective.poll_register(entry),
                    Some(c) => self.shared.comms.slot(c).poll_register(entry),
                }
                .unwrap_or_else(|e| panic!("rank {}: {e}", self.rank));
                // Never completes inline — even the last arriver yields;
                // the scheduler sees the group wait when it classifies
                // the yield, and its control plane runs the completion
                // check after the whole dispatch phase has committed, so
                // same-instant members can never be stranded by a
                // completion racing their wait registration.
                self.event_mut().pending = Some(PendingOp::Collective {
                    key,
                    gen,
                    start,
                    entry,
                });
                Poll::Pending
            }
            Some(PendingOp::Collective {
                key: k,
                gen,
                start,
                entry: latched,
            }) => {
                debug_assert_eq!(k, key, "resumed into a different collective");
                let done = match comm {
                    None => self.shared.collective.poll_finish(gen),
                    Some(c) => self.shared.comms.slot(c).poll_finish(gen),
                }
                .unwrap_or_else(|e| panic!("rank {}: {e}", self.rank));
                match done {
                    Some(res) => {
                        self.event_mut().pending = None;
                        let (name, bytes) = (collective_name(latched.op), latched.bytes);
                        self.apply_collective(start, name, bytes, sub, res);
                        Poll::Ready(res)
                    }
                    None => Poll::Pending,
                }
            }
            Some(other) => panic!(
                "rank {}: resumed into a different op than it yielded on ({other:?})",
                self.rank
            ),
        }
    }

    /// Collective completion math shared by both backends.
    fn apply_collective(
        &mut self,
        start: VirtualTime,
        name: &'static str,
        bytes: u64,
        sub: u64,
        res: CollectiveResult,
    ) {
        self.clock = res.exit;
        self.stats.mpi_time += self.clock - start;
        self.stats.collectives += 1;
        if res.missing > 0 {
            self.stats.shrunk_collectives += 1;
        }
        self.trace_span(Category::MPI, name, start, bytes, sub);
    }

    fn collective(&mut self, entry: CollectiveEntry) -> Poll<CollectiveResult> {
        self.group_collective(None, entry)
    }

    /// Barrier across all ranks. A yield point.
    pub fn barrier(&mut self) -> Poll<()> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.collective(CollectiveEntry {
            op: CollectiveOp::Barrier,
            bytes: 0,
            at,
            value: 0,
            rop: ReduceOp::Sum,
            is_root: false,
        })
        .map(|_| ())
    }

    /// Broadcast `value` (and `bytes` of modelled payload) from `root`. A
    /// yield point.
    pub fn bcast(&mut self, root: usize, bytes: u64, value: i64) -> Poll<i64> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.collective(CollectiveEntry {
            op: CollectiveOp::Bcast,
            bytes,
            at,
            value,
            rop: ReduceOp::Sum,
            is_root: self.rank == root,
        })
        .map(|r| r.value)
    }

    /// All-reduce `value` with `op` over all ranks. A yield point.
    pub fn allreduce(&mut self, bytes: u64, value: i64, op: ReduceOp) -> Poll<i64> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.collective(CollectiveEntry {
            op: CollectiveOp::Allreduce,
            bytes,
            at,
            value,
            rop: op,
            is_root: false,
        })
        .map(|r| r.value)
    }

    /// Reduce to `root`; every rank gets the value back (the simulator does
    /// not model the asymmetry of who holds the result). A yield point.
    pub fn reduce(&mut self, root: usize, bytes: u64, value: i64, op: ReduceOp) -> Poll<i64> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.collective(CollectiveEntry {
            op: CollectiveOp::Reduce,
            bytes,
            at,
            value,
            rop: op,
            is_root: self.rank == root,
        })
        .map(|r| r.value)
    }

    /// All-gather with `bytes` contributed per rank. A yield point.
    pub fn allgather(&mut self, bytes: u64) -> Poll<()> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.collective(CollectiveEntry {
            op: CollectiveOp::Allgather,
            bytes,
            at,
            value: 0,
            rop: ReduceOp::Sum,
            is_root: false,
        })
        .map(|_| ())
    }

    /// Personalized all-to-all exchange with `bytes` per rank pair. A yield
    /// point.
    pub fn alltoall(&mut self, bytes: u64) -> Poll<()> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.collective(CollectiveEntry {
            op: CollectiveOp::Alltoall,
            bytes,
            at,
            value: 0,
            rop: ReduceOp::Sum,
            is_root: false,
        })
        .map(|_| ())
    }

    /// Collective communicator split (`MPI_Comm_split`): ranks with the
    /// same `color` form a sub-communicator. A collective over the world,
    /// and a yield point.
    pub fn split(&mut self, color: i64) -> Poll<Comm> {
        if self.event.is_none() {
            self.failstop_check();
            let start = self.clock;
            let at = self.clock + MPI_CALL_OVERHEAD;
            let (comm, exit) = self
                .shared
                .comms
                .split(&self.shared.cluster, self.rank, color, at);
            self.apply_split(start, color, exit);
            return Poll::Ready(comm);
        }
        match self.pending() {
            None => {
                self.failstop_check();
                let start = self.clock;
                let at = self.clock + MPI_CALL_OVERHEAD;
                let gen = self.shared.comms.poll_split_register(self.rank, color, at);
                // As with collectives: the last arriver yields too; the
                // control plane completes the split after the phase.
                self.event_mut().pending = Some(PendingOp::Split { gen, start, color });
                Poll::Pending
            }
            Some(PendingOp::Split { gen, start, color }) => {
                match self.shared.comms.poll_split_finish(self.rank, gen) {
                    Some((comm, exit)) => {
                        self.event_mut().pending = None;
                        self.apply_split(start, color, exit);
                        Poll::Ready(comm)
                    }
                    None => Poll::Pending,
                }
            }
            Some(other) => panic!(
                "rank {}: resumed into a different op than it yielded on ({other:?})",
                self.rank
            ),
        }
    }

    /// Split completion math shared by both backends.
    fn apply_split(&mut self, start: VirtualTime, color: i64, exit: VirtualTime) {
        self.clock = self.clock.max(exit);
        self.stats.mpi_time += self.clock - start;
        self.stats.collectives += 1;
        self.trace_span(Category::MPI, "comm_split", start, color as u64, 0);
    }

    fn sub_collective(&mut self, comm: &Comm, entry: CollectiveEntry) -> Poll<CollectiveResult> {
        self.group_collective(Some(comm), entry)
    }

    /// Barrier over a sub-communicator. A yield point.
    pub fn comm_barrier(&mut self, comm: &Comm) -> Poll<()> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.sub_collective(
            comm,
            CollectiveEntry {
                op: CollectiveOp::Barrier,
                bytes: 0,
                at,
                value: 0,
                rop: ReduceOp::Sum,
                is_root: false,
            },
        )
        .map(|_| ())
    }

    /// All-reduce over a sub-communicator. A yield point.
    pub fn comm_allreduce(
        &mut self,
        comm: &Comm,
        bytes: u64,
        value: i64,
        op: ReduceOp,
    ) -> Poll<i64> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.sub_collective(
            comm,
            CollectiveEntry {
                op: CollectiveOp::Allreduce,
                bytes,
                at,
                value,
                rop: op,
                is_root: false,
            },
        )
        .map(|r| r.value)
    }

    /// Broadcast over a sub-communicator from the member with local index
    /// `root`. A yield point.
    pub fn comm_bcast(&mut self, comm: &Comm, root: usize, bytes: u64, value: i64) -> Poll<i64> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        let is_root = comm.rank() == root;
        self.sub_collective(
            comm,
            CollectiveEntry {
                op: CollectiveOp::Bcast,
                bytes,
                at,
                value,
                rop: ReduceOp::Sum,
                is_root,
            },
        )
        .map(|r| r.value)
    }

    /// Personalized all-to-all within a sub-communicator. A yield point.
    pub fn comm_alltoall(&mut self, comm: &Comm, bytes: u64) -> Poll<()> {
        let at = self.clock + MPI_CALL_OVERHEAD;
        self.sub_collective(
            comm,
            CollectiveEntry {
                op: CollectiveOp::Alltoall,
                bytes,
                at,
                value: 0,
                rop: ReduceOp::Sum,
                is_root: false,
            },
        )
        .map(|_| ())
    }

    /// Read `bytes` from the parallel filesystem.
    pub fn io_read(&mut self, bytes: u64) {
        self.failstop_check();
        let start = self.clock;
        let d = self.shared.cluster.io_cost(bytes, self.clock);
        self.clock += d;
        self.stats.io_time += d;
        self.stats.io_calls += 1;
        self.trace_span(Category::MPI, "io_read", start, bytes, 0);
    }

    /// Write `bytes` to the parallel filesystem.
    pub fn io_write(&mut self, bytes: u64) {
        self.failstop_check();
        let start = self.clock;
        let d = self.shared.cluster.io_cost(bytes, self.clock);
        self.clock += d;
        self.stats.io_time += d;
        self.stats.io_calls += 1;
        self.trace_span(Category::MPI, "io_write", start, bytes, 0);
    }
}
