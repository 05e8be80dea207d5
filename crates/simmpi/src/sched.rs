//! Event-driven virtual-time scheduler — the paper-scale backend.
//!
//! The thread backend ([`crate::World::run`]) spawns one OS thread per rank
//! and parks it on every blocking MPI call; fine at 64 ranks, hopeless at
//! the paper's 16,384. This module replaces parked threads with *resumable
//! tasks*: every blocking [`crate::Proc`] operation is a yield point
//! returning [`Poll`], and a global event queue ordered by
//! `(virtual instant, rank)` decides which rank runs next.
//!
//! # Phase-structured dispatch
//!
//! The scheduler advances in *phases*. Each phase (1) gathers every rank
//! due at the minimum pending instant `t0` — from the run-queue heap and
//! from any group-release batches — (2) resumes all of them (serially, or
//! on a worker pool when `SimBackend::Event { workers: N }` asks for it),
//! (3) commits their effects in ascending rank order, and (4) runs the
//! collective control plane: every rendezvous touched by a registration
//! (and, after a death, every open rendezvous) gets a counter-based
//! `try_complete` check, and a completed group releases *all* its waiters
//! as one [`ReadyBatch`] at the exit instant instead of one heap push per
//! waiter.
//!
//! This keeps the per-rank-iteration cost near-constant in the rank count:
//!
//! * **Collective completion is O(1) amortized.** Slots keep a running
//!   `max(entry)`, a running reduction fold, and an alive-member counter
//!   maintained from [`crate::death::DeathBoard`] deltas, so the
//!   completion check is a counter compare — no per-member scan, and a
//!   death adjusts counters instead of rescanning every open rendezvous.
//! * **Group wake-ups are batched.** A completed rendezvous contributes
//!   one batch (O(1) heap-equivalent work), not `p` heap pushes.
//! * **The run queue is a four-ary heap** ([`crate::heap::FourAryHeap`]),
//!   half the depth of the old binary heap on the pop-heavy schedule (see
//!   the `schedheap` microbenchmark in the bench crate).
//!
//! # How the two backends stay bit-identical
//!
//! The event paths do not reimplement any timing math. Registration and
//! completion of collectives, splits, and message matching live in
//! [`crate::collectives::CollectiveSlot`], [`crate::comm::CommRegistry`]
//! and [`crate::p2p::Mailbox`], shared with the thread backend; the poll
//! variants call the same private completion functions the blocking
//! variants do. The differential suite in `interp` asserts bitwise-equal
//! virtual times, [`crate::ProcStats`], sensor streams and reports.
//!
//! # Determinism and the worker contract
//!
//! Ties at the same virtual instant always commit in ascending rank
//! order, and all completion instants are computed from the virtual-time
//! model, never from execution order — so the schedule is a pure function
//! of the cluster configuration and the program, *regardless of the
//! worker count*. The ingredients:
//!
//! * Registration never completes a rendezvous inline (see
//!   [`crate::collectives::CollectiveSlot::poll_register`]); the control
//!   plane completes touched slots only after every same-instant rank has
//!   committed, so a completion can never race a member's wait
//!   registration. Registration order within a phase is immaterial: the
//!   running fold uses commutative operators and `max`.
//! * Same-instant sends arrive strictly later than `t0` (the MPI call
//!   overhead precedes the p2p cost), so message matching — which picks
//!   the minimum `(arrival, src)` — can never depend on resume order
//!   within a phase.
//! * Degraded-receive instants are computed from the fault *plan*
//!   (`max(posted, death) + timeout`), not from when the death was
//!   observed.
//!
//! Worker-count invariance is pinned by the `worker_invariance` test
//! suite at 4,096 ranks, healthy and with node deaths.

use crate::death::{death_in_payload, DeathUnwind};
use crate::heap::{FourAryHeap, HeapEntry};
use crate::proc::{EventWait, GroupKey, Proc, WorldShared};
use crate::world::World;
use cluster_sim::time::VirtualTime;
use cluster_sim::trace::{self, Category, TraceEvent, SERVER_LANE};
use std::any::Any;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Result of polling a blocking [`Proc`] operation.
///
/// On the thread backend every operation completes in-line and returns
/// `Ready`; unwrap with [`Poll::ready`]. Under the event scheduler an
/// operation that cannot complete yet latches its entry effects, returns
/// `Pending`, and must be re-invoked with the same arguments when the task
/// is next resumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a Pending operation must be re-polled when the task is resumed"]
pub enum Poll<T> {
    /// The operation completed.
    Ready(T),
    /// The operation blocked; yield to the scheduler and re-poll on resume.
    Pending,
}

impl<T> Poll<T> {
    /// Unwrap a completed operation. Panics on `Pending` — correct only on
    /// the thread backend, where every operation completes in-line.
    #[track_caller]
    pub fn ready(self) -> T {
        match self {
            Poll::Ready(t) => t,
            Poll::Pending => panic!(
                "operation is Pending: blocking Proc calls only complete in-line on \
                 SimBackend::Threads; event-driven tasks must yield and re-poll"
            ),
        }
    }

    /// Map the completed value, passing `Pending` through.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Poll<U> {
        match self {
            Poll::Ready(t) => Poll::Ready(f(t)),
            Poll::Pending => Poll::Pending,
        }
    }

    /// True if the operation blocked.
    pub fn is_pending(&self) -> bool {
        matches!(self, Poll::Pending)
    }
}

/// Which simulation backend executes the ranks of a [`World`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimBackend {
    /// One OS thread per rank, parking on blocking calls. The original
    /// backend and the differential oracle; default.
    #[default]
    Threads,
    /// Event-driven virtual-time scheduler: resumable tasks dispatched in
    /// deterministic phases; scales to the paper's 16,384 ranks in a
    /// single process. `workers > 1` resumes same-instant ranks on a
    /// worker pool — the schedule is bitwise-identical for every worker
    /// count (effects commit in rank order).
    Event {
        /// Worker threads for same-instant dispatch (1 = serial).
        workers: usize,
    },
}

impl SimBackend {
    /// The event backend with serial (single-worker) dispatch — the
    /// common spelling at call sites.
    pub fn event() -> Self {
        SimBackend::Event { workers: 1 }
    }

    /// Parse a backend name (`threads` / `event` / `event:N` with N
    /// workers), as used by CLI flags.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "threads" => Some(SimBackend::Threads),
            "event" => Some(SimBackend::event()),
            _ => {
                let n = s.strip_prefix("event:")?.parse().ok()?;
                (n >= 1).then_some(SimBackend::Event { workers: n })
            }
        }
    }
}

/// What a task's `resume` reports back to the scheduler.
#[derive(Debug)]
pub enum TaskPoll<T> {
    /// The rank's program ran to completion with this output.
    Ready(T),
    /// The rank hit a yield point (some `Proc` operation returned
    /// [`Poll::Pending`]) and parked itself resumably.
    Yielded,
}

/// A resumable rank program: the event scheduler's unit of execution.
///
/// Contract: `resume` runs the rank's program until it either finishes
/// (`Ready`) or a blocking `Proc` operation returns [`Poll::Pending`]
/// (`Yielded`). A yielded task must be re-entrant: the next `resume` must
/// re-poll the *same* operation with the same arguments (the `Proc` keeps
/// the latched entry state and panics on a mismatched retry).
pub trait RankTask {
    /// The rank program's result type.
    type Output;

    /// Run until completion or the next yield point.
    fn resume(&mut self) -> TaskPoll<Self::Output>;

    /// The rank's process handle (the scheduler drains notifications and
    /// inspects waits through it).
    fn proc_mut(&mut self) -> &mut Proc;
}

/// Virtual instant a blocked receive completes degraded (peer dead, no
/// message coming): `max(posted, death) + death_timeout`. Mirrors
/// `Proc::degraded_recv`, whose clock equals `posted` while blocked.
fn degraded_due(
    shared: &WorldShared,
    me: usize,
    size: usize,
    src: usize,
    posted: VirtualTime,
) -> VirtualTime {
    let death = if src == crate::p2p::ANY_SOURCE {
        (0..size)
            .filter(|&r| r != me)
            .filter_map(|r| shared.cluster.death_of(r))
            .max()
            .unwrap_or(posted)
    } else {
        shared.cluster.death_of(src).unwrap_or(posted)
    };
    posted.max(death) + shared.cluster.faults().death_timeout()
}

/// All waiters of one completed rendezvous, released together at the
/// group's exit instant. One batch replaces `p` individual heap pushes —
/// the heap sees O(1) traffic per collective instead of O(p log p).
struct ReadyBatch {
    /// The group's common exit instant.
    at: VirtualTime,
    /// First not-yet-consumed index into `ranks`.
    next: usize,
    /// `(rank, generation)` in ascending rank order; consumed like heap
    /// entries, including the staleness check.
    ranks: Vec<(usize, u64)>,
}

/// Ranks registered for one group rendezvous and waiting for its last
/// arriver.
#[derive(Default)]
struct GroupWaiters {
    ranks: Vec<usize>,
    /// A member registered since the last control-plane pass, so the pass
    /// owes this rendezvous one completion check — one per phase however
    /// many members registered in it.
    touched: bool,
}

impl GroupWaiters {
    /// Put the rendezvous on the control plane's list for this pass, once.
    fn mark(&mut self, key: GroupKey, touched: &mut Vec<GroupKey>) {
        if !self.touched {
            self.touched = true;
            touched.push(key);
        }
    }
}

/// Waiter lists by group. The world collective and the split rendezvous —
/// every collective of a program that never splits — have a slot of their
/// own; only sub-communicators are looked up by ID.
#[derive(Default)]
struct GroupTable {
    world: GroupWaiters,
    split: GroupWaiters,
    comms: HashMap<u64, GroupWaiters>,
}

impl GroupTable {
    fn get_mut(&mut self, key: GroupKey) -> &mut GroupWaiters {
        match key {
            GroupKey::World => &mut self.world,
            GroupKey::Split => &mut self.split,
            GroupKey::Comm(id) => self.comms.entry(id).or_default(),
        }
    }
}

/// Scheduler bookkeeping: the event queue plus per-rank wait state.
struct EventQueue {
    /// Four-ary min-heap of `(instant, rank)` with a generation payload
    /// that makes superseded entries cheap to drop lazily.
    heap: FourAryHeap,
    gens: Vec<u64>,
    /// The instant each rank is currently queued for, if any.
    scheduled: Vec<Option<VirtualTime>>,
    /// What each yielded rank is blocked on.
    waiting: Vec<Option<EventWait>>,
    /// Ranks registered for a group rendezvous, by group.
    groups: GroupTable,
    /// Released groups whose wake-up instant is still in the future.
    batches: Vec<ReadyBatch>,
    /// Groups whose `touched` flag is set, each once (scratch).
    touched: Vec<GroupKey>,
    /// Ranks due at the current phase's instant, ascending (scratch).
    due: Vec<usize>,
    /// Send destinations of the rank being committed (scratch).
    sent: Vec<usize>,
    /// Recycled batch rank vectors (zero steady-state allocation).
    batch_pool: Vec<Vec<(usize, u64)>>,
}

impl EventQueue {
    fn new(size: usize) -> Self {
        let mut q = EventQueue {
            heap: FourAryHeap::with_capacity(size),
            gens: vec![0; size],
            scheduled: vec![Some(VirtualTime::ZERO); size],
            waiting: (0..size).map(|_| None).collect(),
            groups: GroupTable::default(),
            batches: Vec::new(),
            touched: Vec::new(),
            due: Vec::with_capacity(size),
            sent: Vec::new(),
            batch_pool: Vec::new(),
        };
        for rank in 0..size {
            q.heap.push(HeapEntry {
                at: VirtualTime::ZERO,
                rank: rank as u32,
                gen: 0,
            });
        }
        q
    }

    /// Queue `rank` at `t`, unless it is already queued earlier. Bumps the
    /// generation so any later-queued entry goes stale.
    fn schedule(&mut self, rank: usize, t: VirtualTime) {
        if self.scheduled[rank].is_none_or(|cur| t < cur) {
            self.gens[rank] += 1;
            self.scheduled[rank] = Some(t);
            self.heap.push(HeapEntry {
                at: t,
                rank: rank as u32,
                gen: self.gens[rank],
            });
        }
    }

    /// Gather every rank due at the minimum pending instant into
    /// `self.due` (ascending) and clear their queue state. Returns `false`
    /// when nothing is pending at all (deadlock if ranks remain).
    fn select_due(&mut self, finished: &[bool]) -> bool {
        self.due.clear();
        // Prune stale heap entries off the top.
        while let Some(e) = self.heap.peek() {
            let rank = e.rank as usize;
            if e.gen != self.gens[rank] || finished[rank] {
                self.heap.pop();
            } else {
                break;
            }
        }
        // Prune stale batch heads; recycle exhausted batches.
        let mut i = 0;
        while i < self.batches.len() {
            let b = &mut self.batches[i];
            while b.next < b.ranks.len() {
                let (rank, gen) = b.ranks[b.next];
                if gen != self.gens[rank] || finished[rank] {
                    b.next += 1;
                } else {
                    break;
                }
            }
            if b.next >= b.ranks.len() {
                let mut b = self.batches.swap_remove(i);
                b.ranks.clear();
                self.batch_pool.push(b.ranks);
            } else {
                i += 1;
            }
        }
        // The phase instant: minimum over the heap top and batch heads.
        let mut t0 = self.heap.peek().map(|e| e.at);
        for b in &self.batches {
            t0 = Some(t0.map_or(b.at, |t| t.min(b.at)));
        }
        let Some(t0) = t0 else { return false };
        // Drain heap entries at t0 (skipping stale ones).
        while let Some(&e) = self.heap.peek() {
            if e.at != t0 {
                break;
            }
            self.heap.pop();
            let rank = e.rank as usize;
            if e.gen == self.gens[rank] && !finished[rank] {
                self.due.push(rank);
            }
        }
        // Drain batches whose instant is t0. A rank can be valid in at
        // most one place (every supersession bumps its generation), so
        // `due` stays duplicate-free.
        let mut i = 0;
        while i < self.batches.len() {
            if self.batches[i].at == t0 {
                let mut b = self.batches.swap_remove(i);
                for &(rank, gen) in &b.ranks[b.next..] {
                    if gen == self.gens[rank] && !finished[rank] {
                        self.due.push(rank);
                    }
                }
                b.ranks.clear();
                self.batch_pool.push(b.ranks);
            } else {
                i += 1;
            }
        }
        self.due.sort_unstable();
        for &rank in &self.due {
            self.scheduled[rank] = None;
            self.waiting[rank] = None;
        }
        true
    }

    /// Process the sends a just-resumed rank made: each may unblock a
    /// receiver.
    fn drain(&mut self, shared: &WorldShared, proc: &mut Proc) {
        let mut sent = std::mem::take(&mut self.sent);
        proc.drain_sent_to(&mut sent);
        for dest in sent.drain(..) {
            if let Some(EventWait::Recv { src, tag, posted }) = self.waiting[dest] {
                if let Some(arr) = shared.mailboxes[dest].best_arrival(src, tag) {
                    self.schedule(dest, posted.max(arr));
                }
            }
        }
        self.sent = sent;
    }

    /// Record what a yielded rank is blocked on and queue its wake-up if
    /// the completion instant is already known.
    fn classify(&mut self, rank: usize, size: usize, shared: &WorldShared, proc: &Proc) {
        let wait = proc
            .event_wait()
            .unwrap_or_else(|| panic!("rank {rank} yielded with no pending operation"));
        self.waiting[rank] = Some(wait);
        match wait {
            EventWait::Recv { src, tag, posted } => {
                if let Some(arr) = shared.mailboxes[rank].best_arrival(src, tag) {
                    self.schedule(rank, posted.max(arr));
                } else if peer_gone(shared, rank, src) {
                    self.schedule(rank, degraded_due(shared, rank, size, src, posted));
                }
                // Otherwise: a future send or death notification wakes it.
            }
            // A rank only ever yields on a group wait straight out of its
            // registration (a registered rank is next resumed by the
            // group's release), so this is where the rendezvous is marked
            // for the end-of-phase completion pass.
            EventWait::Group(key) => {
                let group = self.groups.get_mut(key);
                group.ranks.push(rank);
                group.mark(key, &mut self.touched);
            }
        }
    }

    /// A rank died this phase: re-examine every blocked receive (its peer
    /// may now be gone for good). Runs once per phase, after all commits —
    /// the death board is final by then, and `schedule` keeps the earliest
    /// wake-up, so one pass converges.
    fn rescan_recvs_after_death(&mut self, size: usize, shared: &WorldShared) {
        for rank in 0..size {
            if let Some(EventWait::Recv { src, tag, posted }) = self.waiting[rank] {
                // A matching in-flight message still completes normally
                // (pre-death sends deliver); only a matchless wait degrades.
                if shared.mailboxes[rank].best_arrival(src, tag).is_none()
                    && peer_gone(shared, rank, src)
                {
                    self.schedule(rank, degraded_due(shared, rank, size, src, posted));
                }
            }
        }
    }

    /// The collective control plane, run once per phase after every due
    /// rank has committed: try to complete each rendezvous touched by a
    /// registration — and, after a death, every open rendezvous (the
    /// membership shrank, so the arrivals so far may now suffice). A
    /// completed group releases all its waiters as one [`ReadyBatch`].
    ///
    /// Deferring completion to this point is what makes the schedule
    /// independent of commit order within the phase: every same-instant
    /// member has registered its wait before any release is computed.
    fn complete_touched(&mut self, shared: &WorldShared, deaths: bool) {
        if deaths {
            let groups = &mut self.groups;
            let comms = groups.comms.iter_mut();
            let open = [
                (GroupKey::World, &mut groups.world),
                (GroupKey::Split, &mut groups.split),
            ]
            .into_iter()
            .chain(comms.map(|(&id, group)| (GroupKey::Comm(id), group)))
            .filter(|(_, group)| !group.ranks.is_empty());
            for (key, group) in open {
                group.mark(key, &mut self.touched);
            }
        }
        let mut touched = std::mem::take(&mut self.touched);
        for key in touched.drain(..) {
            self.groups.get_mut(key).touched = false;
            let exit = match key {
                GroupKey::World => shared
                    .collective
                    .try_complete(&shared.cluster, &shared.board)
                    .map(|res| res.exit),
                GroupKey::Comm(id) => shared
                    .comms
                    .slot_by_id(id)
                    .and_then(|slot| slot.try_complete(&shared.cluster, &shared.board))
                    .map(|res| res.exit),
                GroupKey::Split => shared.comms.try_complete_split(&shared.cluster),
            };
            if let Some(exit) = exit {
                self.release_group(exit, key);
            }
        }
        self.touched = touched;
    }

    /// Release a completed group's waiters as one batch at `at`. Group
    /// exits are strictly after the current phase instant (entry clocks
    /// include the MPI call overhead), so the batch never feeds back into
    /// the running phase.
    fn release_group(&mut self, at: VirtualTime, key: GroupKey) {
        let waiters = &mut self.groups.get_mut(key).ranks;
        waiters.sort_unstable();
        let mut ranks = self.batch_pool.pop().unwrap_or_default();
        ranks.clear();
        for &rank in waiters.iter() {
            self.gens[rank] += 1;
            self.scheduled[rank] = Some(at);
            self.waiting[rank] = None;
            ranks.push((rank, self.gens[rank]));
        }
        // Emptied in place: the list keeps its capacity.
        waiters.clear();
        self.batches.push(ReadyBatch { at, next: 0, ranks });
    }
}

/// Is the peer side of a blocked receive gone for good?
fn peer_gone(shared: &WorldShared, me: usize, src: usize) -> bool {
    if src == crate::p2p::ANY_SOURCE {
        shared.board.all_peers_dead(me)
    } else {
        shared.board.is_dead(src)
    }
}

/// Raw-pointer handle that lets scoped workers take `&mut tasks[rank]`
/// for *disjoint* ranks. SAFETY: the dispatch loop guarantees each due
/// rank appears exactly once across all workers' chunks.
struct TaskPtr<T>(*mut T);
impl<T> Clone for TaskPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TaskPtr<T> {}
unsafe impl<T: Send> Send for TaskPtr<T> {}

/// Minimum number of same-instant tasks before parallel dispatch pays for
/// its synchronization; below this the phase resumes serially even with
/// `workers > 1`.
const PAR_MIN: usize = 256;

type ResumeOutcome<O> = Result<TaskPoll<O>, Box<dyn Any + Send>>;

impl World {
    /// Run every rank as a resumable task on the event-driven virtual-time
    /// scheduler with serial dispatch. See [`World::run_event_workers`].
    pub fn run_event<T, F, D>(&self, make: F, on_death: D) -> Vec<T::Output>
    where
        T: RankTask + Send,
        T::Output: Send,
        F: FnMut(usize, Proc) -> T,
        D: Fn(DeathUnwind, &mut T) -> T::Output,
    {
        self.run_event_workers(1, make, on_death)
    }

    /// Run every rank as a resumable task on the event-driven virtual-time
    /// scheduler. `make` builds rank `r`'s task from its (event-mode)
    /// [`Proc`]; `on_death` converts a fail-stopped task into its output,
    /// like [`crate::catch_death`] does on the thread backend.
    ///
    /// `workers > 1` resumes same-instant ranks on a scoped worker pool;
    /// effects still commit in ascending rank order, so virtual times,
    /// stats, and traces are bit-identical to [`World::run`] and to every
    /// other worker count. One process handles tens of thousands of ranks.
    ///
    /// # Panics
    ///
    /// With `"rank N panicked: ..."` if a task panics with a non-death
    /// payload, and with a deadlock message if the event queue drains while
    /// unfinished tasks remain (the thread backend's 30-second real-time
    /// timeout becomes an immediate, precise diagnosis here).
    pub fn run_event_workers<T, F, D>(
        &self,
        workers: usize,
        mut make: F,
        on_death: D,
    ) -> Vec<T::Output>
    where
        T: RankTask + Send,
        T::Output: Send,
        F: FnMut(usize, Proc) -> T,
        D: Fn(DeathUnwind, &mut T) -> T::Output,
    {
        let workers = workers.max(1);
        let size = self.size();
        let shared = self.make_shared();
        let mut tasks: Vec<T> = (0..size)
            .map(|rank| {
                let mut proc = Proc::new(rank, size, shared.clone());
                proc.enable_event_mode();
                make(rank, proc)
            })
            .collect();
        let mut outputs: Vec<Option<T::Output>> = (0..size).map(|_| None).collect();
        let mut finished = vec![false; size];
        let mut q = EventQueue::new(size);
        let mut live = size;
        let mut results: Vec<Option<ResumeOutcome<T::Output>>> = Vec::new();

        // Phase accounting for `repro simmpi --profile`. Aggregates are
        // recorded as a handful of SCHED trace events at run end, so the
        // per-phase cost is two `Instant` reads per phase — and only when
        // a trace session has the SCHED category enabled.
        let profiling = trace::enabled(Category::SCHED);
        let (mut select_ns, mut resume_ns, mut commit_ns, mut complete_ns) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut phases, mut resumed) = (0u64, 0u64);

        while live > 0 {
            let t_select = profiling.then(Instant::now);
            let any = q.select_due(&finished);
            if let Some(t) = t_select {
                select_ns += t.elapsed().as_nanos() as u64;
            }
            if !any {
                let blocked: Vec<usize> = (0..size).filter(|&r| !finished[r]).take(8).collect();
                panic!(
                    "simmpi deadlock: event queue is empty with {live} rank(s) still \
                     blocked (first few: {blocked:?})"
                );
            }
            if q.due.is_empty() {
                continue; // everything at this instant was stale
            }
            phases += 1;
            resumed += q.due.len() as u64;
            let due = std::mem::take(&mut q.due);

            // Resume phase: run every due rank to its next yield point.
            // Parallel dispatch is gated on a deterministic predicate
            // (worker knob, due-set size, tracing off — trace buffers are
            // per-thread and must stay on the control thread).
            let t_resume = profiling.then(Instant::now);
            results.clear();
            results.resize_with(due.len(), || None);
            if workers > 1 && due.len() >= PAR_MIN && trace::mask().bits() == 0 {
                let chunk = due.len().div_ceil(workers);
                let tasks_ptr = TaskPtr(tasks.as_mut_ptr());
                std::thread::scope(|s| {
                    for (due_chunk, res_chunk) in due.chunks(chunk).zip(results.chunks_mut(chunk)) {
                        s.spawn(move || {
                            // Capture the Send wrapper, not its raw field.
                            let tasks_ptr = tasks_ptr;
                            for (slot, &rank) in res_chunk.iter_mut().zip(due_chunk) {
                                // SAFETY: due ranks are distinct and each
                                // appears in exactly one chunk, so this is
                                // the only `&mut tasks[rank]` alive.
                                let task = unsafe { &mut *tasks_ptr.0.add(rank) };
                                *slot = Some(std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    task.resume()
                                })));
                            }
                        });
                    }
                });
            } else {
                for (slot, &rank) in results.iter_mut().zip(&due) {
                    let task = &mut tasks[rank];
                    *slot = Some(std::panic::catch_unwind(AssertUnwindSafe(|| task.resume())));
                }
            }
            if let Some(t) = t_resume {
                resume_ns += t.elapsed().as_nanos() as u64;
            }

            // Commit phase, ascending rank order (`due` is sorted): apply
            // outputs, drain send/registration notifications, record
            // waits. Deaths announce themselves to the board during the
            // resume phase; here they only convert to outputs.
            let t_commit = profiling.then(Instant::now);
            let mut deaths = false;
            for (slot, &rank) in results.iter_mut().zip(&due) {
                match slot.take().expect("every due rank was resumed") {
                    Ok(TaskPoll::Ready(out)) => {
                        outputs[rank] = Some(out);
                        finished[rank] = true;
                        live -= 1;
                        q.drain(&shared, tasks[rank].proc_mut());
                    }
                    Ok(TaskPoll::Yielded) => {
                        q.drain(&shared, tasks[rank].proc_mut());
                        q.classify(rank, size, &shared, tasks[rank].proc_mut());
                    }
                    Err(payload) => {
                        if let Some(death) = death_in_payload(&*payload) {
                            let out = on_death(death, &mut tasks[rank]);
                            outputs[rank] = Some(out);
                            finished[rank] = true;
                            live -= 1;
                            // Pre-death sends must still deliver.
                            q.drain(&shared, tasks[rank].proc_mut());
                            deaths = true;
                        } else {
                            let msg = payload
                                .downcast_ref::<String>()
                                .map(String::as_str)
                                .or_else(|| payload.downcast_ref::<&str>().copied())
                                .unwrap_or("<non-string panic>");
                            panic!("rank {rank} panicked: {msg}");
                        }
                    }
                }
            }
            if let Some(t) = t_commit {
                commit_ns += t.elapsed().as_nanos() as u64;
            }

            // Control plane: death fallout, then group completion.
            let t_complete = profiling.then(Instant::now);
            if deaths {
                q.rescan_recvs_after_death(size, &shared);
            }
            q.complete_touched(&shared, deaths);
            if let Some(t) = t_complete {
                complete_ns += t.elapsed().as_nanos() as u64;
            }
            q.due = due;
        }

        if profiling {
            for (name, ns) in [
                ("sched.select", select_ns),
                ("sched.resume", resume_ns),
                ("sched.commit", commit_ns),
                ("sched.collectives", complete_ns),
            ] {
                trace::record(TraceEvent::complete(
                    Category::SCHED,
                    name,
                    SERVER_LANE,
                    0,
                    0,
                    ns,
                    phases,
                    resumed,
                ));
            }
        }
        outputs
            .into_iter()
            .map(|o| o.expect("every rank produced an output"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p2p::{ANY_SOURCE, ANY_TAG};
    use crate::{catch_death, ReduceOp};
    use cluster_sim::node::Work;
    use cluster_sim::ClusterConfig;
    use std::sync::Arc;

    fn quiet_world(ranks: usize) -> World {
        World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
    }

    /// A hand-rolled resumable task: a ring pass written as an explicit
    /// state machine (what the interp crate's VM does generically).
    struct RingTask {
        proc: Proc,
        state: u8,
        got: i64,
    }

    impl RankTask for RingTask {
        type Output = (i64, VirtualTime);

        fn resume(&mut self) -> TaskPoll<Self::Output> {
            let n = self.proc.size();
            let next = (self.proc.rank() + 1) % n;
            let prev = (self.proc.rank() + n - 1) % n;
            loop {
                match self.state {
                    0 => {
                        if self.proc.rank() == 0 {
                            self.proc.send(next, 8, 0, 5);
                        }
                        self.state = 1;
                    }
                    1 => match self.proc.recv(prev, 0) {
                        Poll::Ready(info) => {
                            self.got = info.value;
                            self.state = 2;
                        }
                        Poll::Pending => return TaskPoll::Yielded,
                    },
                    2 => {
                        if self.proc.rank() != 0 {
                            self.proc.send(next, 8, 0, self.got * 2);
                        }
                        self.state = 3;
                    }
                    _ => return TaskPoll::Ready((self.got, self.proc.now())),
                }
            }
        }

        fn proc_mut(&mut self) -> &mut Proc {
            &mut self.proc
        }
    }

    #[test]
    fn event_ring_matches_thread_ring() {
        let threaded = quiet_world(3).run(|p| {
            let n = p.size();
            let next = (p.rank() + 1) % n;
            let prev = (p.rank() + n - 1) % n;
            if p.rank() == 0 {
                p.send(next, 8, 0, 5);
                (p.recv(prev, 0).ready().value, p.now())
            } else {
                let v = p.recv(prev, 0).ready().value;
                p.send(next, 8, 0, v * 2);
                (v, p.now())
            }
        });
        let evented = quiet_world(3).run_event(
            |_, proc| RingTask {
                proc,
                state: 0,
                got: 0,
            },
            |_, _| unreachable!("no deaths planned"),
        );
        // Rank 0's recv is its last op in both variants; thread rank 0
        // returns the recv value, event rank 0 stores it the same way.
        assert_eq!(threaded, evented);
    }

    /// A generic driver: re-runs a closure-based "program counter" task.
    struct StepTask<F> {
        proc: Proc,
        step: F,
    }

    impl<F, O> RankTask for StepTask<F>
    where
        F: FnMut(&mut Proc) -> TaskPoll<O>,
    {
        type Output = O;

        fn resume(&mut self) -> TaskPoll<O> {
            (self.step)(&mut self.proc)
        }

        fn proc_mut(&mut self) -> &mut Proc {
            &mut self.proc
        }
    }

    #[test]
    fn event_barrier_matches_thread_barrier() {
        let threaded = quiet_world(8).run(|p| {
            p.compute(Work::cpu(1000 * (p.rank() as u64 + 1)), 0.0);
            p.barrier().ready();
            p.now()
        });
        let evented = quiet_world(8).run_event(
            |_, proc| {
                let mut computed = false;
                StepTask {
                    proc,
                    step: move |p: &mut Proc| {
                        if !computed {
                            p.compute(Work::cpu(1000 * (p.rank() as u64 + 1)), 0.0);
                            computed = true;
                        }
                        match p.barrier() {
                            Poll::Ready(()) => TaskPoll::Ready(p.now()),
                            Poll::Pending => TaskPoll::Yielded,
                        }
                    },
                }
            },
            |_, _| unreachable!(),
        );
        assert_eq!(threaded, evented);
        assert!(evented.iter().all(|t| *t == evented[0]));
    }

    #[test]
    fn event_allreduce_matches_threads() {
        let threaded =
            quiet_world(5).run(|p| p.allreduce(8, p.rank() as i64, ReduceOp::Sum).ready());
        let evented = quiet_world(5).run_event(
            |_, proc| StepTask {
                proc,
                step: |p: &mut Proc| match p.allreduce(8, p.rank() as i64, ReduceOp::Sum) {
                    Poll::Ready(v) => TaskPoll::Ready(v),
                    Poll::Pending => TaskPoll::Yielded,
                },
            },
            |_, _| unreachable!(),
        );
        assert_eq!(threaded, evented);
    }

    #[test]
    fn event_wildcard_recv_collects_all_senders() {
        let totals = quiet_world(4).run_event(
            |_, proc| {
                let mut total = 0i64;
                let mut recvd = 0u32;
                let mut sent = false;
                StepTask {
                    proc,
                    step: move |p: &mut Proc| {
                        if p.rank() == 0 {
                            while recvd < 3 {
                                match p.recv(ANY_SOURCE, ANY_TAG) {
                                    Poll::Ready(info) => {
                                        total += info.value;
                                        recvd += 1;
                                    }
                                    Poll::Pending => return TaskPoll::Yielded,
                                }
                            }
                            TaskPoll::Ready(total)
                        } else {
                            if !sent {
                                p.send(0, 64, p.rank() as i64, p.rank() as i64 * 10);
                                sent = true;
                            }
                            TaskPoll::Ready(0)
                        }
                    },
                }
            },
            |_, _| unreachable!(),
        );
        assert_eq!(totals[0], 60);
    }

    #[test]
    fn event_failstop_degrades_recv_like_threads() {
        let make_cluster = || {
            Arc::new(
                ClusterConfig::quiet(2)
                    .with_faults(
                        cluster_sim::FaultPlan::none()
                            .with_rank_death(0, VirtualTime::from_micros(1)),
                    )
                    .build(),
            )
        };
        let threaded = World::new(make_cluster()).run(|p| {
            catch_death(|| {
                if p.rank() == 0 {
                    p.compute(Work::cpu(10_000), 0.0);
                    p.compute(Work::cpu(10_000), 0.0);
                    None
                } else {
                    Some((p.recv(0, 7).ready(), p.stats()))
                }
            })
            .ok()
        });
        let evented = World::new(make_cluster()).run_event(
            |_, proc| StepTask {
                proc,
                step: |p: &mut Proc| {
                    if p.rank() == 0 {
                        p.compute(Work::cpu(10_000), 0.0);
                        p.compute(Work::cpu(10_000), 0.0);
                        TaskPoll::Ready(None)
                    } else {
                        match p.recv(0, 7) {
                            Poll::Ready(info) => TaskPoll::Ready(Some((info, p.stats()))),
                            Poll::Pending => TaskPoll::Yielded,
                        }
                    }
                },
            },
            |_death, _task| None,
        );
        assert_eq!(threaded[1], evented[1].map(Some));
        let (info, stats) = evented[1].unwrap();
        assert_eq!(stats.peer_dead_recvs, 1);
        assert_eq!(info.bytes, 0);
    }

    #[test]
    fn event_deadlock_panics_immediately() {
        let result = std::panic::catch_unwind(|| {
            quiet_world(2).run_event(
                |_, proc| StepTask {
                    proc,
                    step: |p: &mut Proc| match p.recv(1 - p.rank(), 9) {
                        Poll::Ready(info) => TaskPoll::Ready(info.value),
                        Poll::Pending => TaskPoll::Yielded,
                    },
                },
                |_, _| unreachable!(),
            )
        });
        let payload = result.expect_err("both ranks block forever");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("simmpi deadlock"), "{msg}");
    }

    #[test]
    fn event_scales_past_thread_limits() {
        // A modest smoke at a rank count the thread backend would need
        // 2,048 stacks for; the event loop does it in-process, serially.
        let n = 2048;
        let ends = quiet_world(n).run_event(
            |_, proc| {
                let mut rounds_started = 0u64;
                StepTask {
                    proc,
                    step: move |p: &mut Proc| loop {
                        let done = p.stats().collectives;
                        if done == 3 {
                            return TaskPoll::Ready(p.now());
                        }
                        if rounds_started == done {
                            p.compute(Work::cpu(100 + p.rank() as u64), 0.0);
                            rounds_started += 1;
                        }
                        match p.barrier() {
                            Poll::Ready(()) => continue,
                            Poll::Pending => return TaskPoll::Yielded,
                        }
                    },
                }
            },
            |_, _| unreachable!(),
        );
        assert!(ends.iter().all(|t| *t == ends[0]));
        assert!(ends[0] > VirtualTime::ZERO);
    }

    /// The same 2,048-rank barrier workload on 1 vs 4 workers: the due
    /// sets exceed `PAR_MIN`, so the parallel dispatch path actually runs,
    /// and the final instants must be bitwise identical.
    #[test]
    fn parallel_dispatch_matches_serial() {
        let n = 2048;
        let run = |workers: usize| {
            quiet_world(n).run_event_workers(
                workers,
                |_, proc| {
                    let mut rounds_started = 0u64;
                    StepTask {
                        proc,
                        step: move |p: &mut Proc| loop {
                            let done = p.stats().collectives;
                            if done == 3 {
                                return TaskPoll::Ready(p.now());
                            }
                            if rounds_started == done {
                                p.compute(Work::cpu(100 + p.rank() as u64), 0.0);
                                rounds_started += 1;
                            }
                            match p.barrier() {
                                Poll::Ready(()) => continue,
                                Poll::Pending => return TaskPoll::Yielded,
                            }
                        },
                    }
                },
                |_, _| unreachable!(),
            )
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn backend_parse_accepts_worker_counts() {
        assert_eq!(SimBackend::parse("threads"), Some(SimBackend::Threads));
        assert_eq!(SimBackend::parse("event"), Some(SimBackend::event()));
        assert_eq!(
            SimBackend::parse("event:8"),
            Some(SimBackend::Event { workers: 8 })
        );
        assert_eq!(SimBackend::parse("event:0"), None);
        assert_eq!(SimBackend::parse("event:x"), None);
        assert_eq!(SimBackend::parse("fibers"), None);
    }
}
