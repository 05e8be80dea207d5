//! Event-driven virtual-time scheduler — the simulation backend.
//!
//! Every rank is a *resumable task*: every blocking [`crate::Proc`]
//! operation is a yield point returning [`Poll`], and a global event queue
//! ordered by `(virtual instant, rank)` decides which rank runs next. One
//! process simulates the paper's 16,384 ranks.
//!
//! # Phase-structured dispatch
//!
//! The scheduler advances in *phases*. Each phase (1) gathers every rank
//! due at the minimum pending instant `t0` — from the run-queue heap and
//! from any collective-release batches — (2) resumes all of them (serially, or
//! on a worker pool when `SimBackend::Event { workers: N }` asks for it),
//! (3) commits their effects in ascending rank order, and (4) runs the
//! collective control plane: if a rank registered with the world's
//! rendezvous in this phase (or a rank died while it is open), it gets one
//! counter-based `try_complete` check, and a completed collective releases
//! *all* its waiters as one `ReadyBatch` at the exit instant instead of
//! one heap push per waiter.
//!
//! # Who touches what
//!
//! During a resume a rank reads and writes only its own [`crate::Proc`]
//! (plus the immutable cluster model): a send goes to the rank's own
//! outbox, a blocking operation latches in the rank. Every write another
//! rank can observe happens on the control thread between resumes, in the
//! commit step: it moves outbox messages into the receivers' inboxes,
//! registers latched collective arrivals with the world's rendezvous,
//! marks deaths on the [`DeathBoard`], and hands each released waiter its
//! result. Mailboxes, the slot and the death board are therefore plain data
//! with `&mut self` methods — nothing in this crate takes a lock — and
//! worker threads resuming disjoint ranks share nothing mutable.
//!
//! This keeps the per-rank-iteration cost near-constant in the rank count:
//!
//! * **Collective completion is O(1).** The slot keeps a running
//!   `max(entry)` and a running sum, and reads the alive count off the
//!   [`DeathBoard`]'s death count, so the completion check is a counter
//!   compare — no per-rank scan, before or after a death.
//! * **Collective wake-ups are batched.** A completed rendezvous
//!   contributes one batch (O(1) heap-equivalent work), not `p` heap
//!   pushes.
//! * **The run queue is a four-ary heap** (`heap::FourAryHeap`), half the
//!   depth of the old binary heap on the pop-heavy schedule (the
//!   measurement is recorded in DESIGN.md §14).
//!
//! # Determinism and the worker contract
//!
//! Ties at the same virtual instant always commit in ascending rank
//! order, and all completion instants are computed from the virtual-time
//! model, never from execution order — so the schedule is a pure function
//! of the cluster configuration and the program, *regardless of the
//! worker count*. The ingredients:
//!
//! * An arrival never completes a rendezvous inline; the control plane
//!   completes the touched slot only after every same-instant rank has
//!   committed, so a completion can never race a registration.
//!   Registration order within a phase is ascending rank, and immaterial
//!   anyway: the running fold is a wrapping sum and a `max`.
//! * Same-instant sends arrive strictly later than `t0` (the MPI call
//!   overhead precedes the p2p cost), so deferring their delivery to the
//!   commit step cannot change which message a same-phase receive takes.
//! * Degraded-receive instants are computed from the fault *plan*
//!   (`max(posted, death) + timeout`), not from when the death was
//!   observed.
//!
//! Worker-count invariance is pinned by the `worker_invariance` test
//! suite at 4,096 ranks, healthy and with node deaths; the virtual-time
//! results themselves are pinned by golden fingerprints in
//! `tests/event_equivalence.rs`.

use crate::collectives::{CollectiveResult, CollectiveSlot};
use crate::death::{death_in_payload, DeathBoard, DeathUnwind};
use crate::heap::{FourAryHeap, HeapEntry};
use crate::p2p::{ANY_SOURCE, ANY_TAG};
use crate::proc::{PendingOp, Proc, Wake};
use crate::world::World;
use cluster_sim::time::VirtualTime;
use cluster_sim::trace::{self, Category, TraceEvent, SERVER_LANE};
use cluster_sim::Cluster;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// Result of polling a blocking [`Proc`] operation: an operation that
/// cannot complete yet latches its entry effects, returns `Pending`, and
/// must be re-invoked with the same arguments when the task is next
/// resumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a Pending operation must be re-polled when the task is resumed"]
pub enum Poll<T> {
    /// The operation completed.
    Ready(T),
    /// The operation blocked; yield to the scheduler and re-poll on resume.
    Pending,
}

impl<T> Poll<T> {
    /// Map the completed value, passing `Pending` through.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Poll<U> {
        match self {
            Poll::Ready(t) => Poll::Ready(f(t)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// How the scheduler dispatches same-instant ranks. There is one
/// simulation backend; the enum survives as the carrier of its one knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimBackend {
    /// Event-driven virtual-time scheduler: resumable tasks dispatched in
    /// deterministic phases. `workers > 1` resumes same-instant ranks on a
    /// worker pool — the schedule is bitwise-identical for every worker
    /// count (effects commit in rank order).
    Event {
        /// Worker threads for same-instant dispatch (1 = serial).
        workers: usize,
    },
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::event()
    }
}

impl SimBackend {
    /// Serial (single-worker) dispatch — the common spelling at call sites.
    pub fn event() -> Self {
        SimBackend::Event { workers: 1 }
    }

    /// Worker threads for same-instant dispatch.
    pub fn workers(self) -> usize {
        let SimBackend::Event { workers } = self;
        workers
    }

    /// Parse `event` / `event:N` (N workers), as used by CLI flags.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "event" {
            return Some(SimBackend::event());
        }
        let n = s.strip_prefix("event:")?.parse().ok()?;
        (n >= 1).then_some(SimBackend::Event { workers: n })
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
/// the latched entry state and panics on a mismatched retry), and a task
/// yields only on a `Pending` operation (one that yields with nothing
/// latched is never resumed, so the run ends in the deadlock report).
/// This is the one way to run a rank: the bytecode VM meets the contract
/// by snapshotting its frames and rewinding onto the pending builtin.
pub trait RankTask {
    /// The rank program's result type.
    type Output;

    /// Run until completion or the next yield point.
    fn resume(&mut self) -> TaskPoll<Self::Output>;

    /// The rank's process handle; the scheduler commits the rank's effects
    /// and hands it results through it, between resumes.
    fn proc_mut(&mut self) -> &mut Proc;
}

/// Virtual instant a blocked receive completes degraded (peer dead, no
/// message coming): `max(posted, death) + DEATH_TIMEOUT`, where a wildcard
/// receive waits out the latest death among its peers.
fn degraded_due(cluster: &Cluster, me: usize, src: usize, posted: VirtualTime) -> VirtualTime {
    let death = if src == ANY_SOURCE {
        (0..cluster.ranks())
            .filter(|&r| r != me)
            .filter_map(|r| cluster.death_of(r))
            .max()
    } else {
        cluster.death_of(src)
    };
    posted.max(death.unwrap_or(posted)) + cluster_sim::fault::DEATH_TIMEOUT
}

/// All waiters of one completed collective, released together at its
/// exit instant. One batch replaces `p` individual heap pushes —
/// the heap sees O(1) traffic per collective instead of O(p log p).
struct ReadyBatch {
    /// The collective's common exit instant.
    at: VirtualTime,
    /// First not-yet-consumed index into `ranks`.
    next: usize,
    /// `(rank, generation)` in ascending rank order; consumed like heap
    /// entries, including the staleness check.
    ranks: Vec<(usize, u64)>,
}

/// What a yielded rank is blocked on, as the scheduler records it.
#[derive(Clone, Copy, Debug)]
enum Waiting {
    /// Blocked receive; `posted` is the completion floor (the receive
    /// finishes at `max(posted, arrival)`).
    Recv {
        src: usize,
        tag: i64,
        posted: VirtualTime,
    },
    /// Registered with the world's collective, waiting for the last
    /// arriver.
    Collective,
}

/// Scheduler bookkeeping: the event queue, per-rank wait state, and the
/// shared simulation state only the control thread touches.
struct EventQueue {
    /// Four-ary min-heap of `(instant, rank)` with a generation payload
    /// that makes superseded entries cheap to drop lazily.
    heap: FourAryHeap,
    gens: Vec<u64>,
    /// The instant each rank is currently queued for, if any.
    scheduled: Vec<Option<VirtualTime>>,
    /// What each yielded rank is blocked on.
    waiting: Vec<Option<Waiting>>,
    /// Fail-stop liveness, marked when a death commits.
    board: DeathBoard,
    /// The world's collective rendezvous: the slot folding the arrivals.
    world: CollectiveSlot,
    /// The ranks parked on `world`.
    parked: Vec<usize>,
    /// A rank registered with `world` since the last control-plane pass,
    /// so the pass owes it one completion check — one per phase however
    /// many ranks registered in it.
    touched: bool,
    /// Released collectives whose wake-up instant is still in the future.
    batches: Vec<ReadyBatch>,
    /// Ranks due at the current phase's instant, ascending (scratch).
    due: Vec<usize>,
    /// Recycled batch rank vectors (zero steady-state allocation).
    batch_pool: Vec<Vec<(usize, u64)>>,
}

impl EventQueue {
    fn new(size: usize) -> Self {
        let mut q = EventQueue {
            heap: FourAryHeap::with_capacity(size),
            gens: vec![0; size],
            scheduled: vec![Some(VirtualTime::ZERO); size],
            waiting: vec![None; size],
            board: DeathBoard::new(size),
            world: CollectiveSlot::new(size),
            parked: Vec::new(),
            touched: false,
            batches: Vec::new(),
            due: Vec::with_capacity(size),
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

    /// Deliver the sends a just-resumed rank made: move each into its
    /// receiver's inbox, and queue a receiver it unblocks. The message in
    /// hand is the only new candidate for a blocked receive and `schedule`
    /// keeps the earliest wake-up, so the inbox needs no rescan.
    fn deliver<T: RankTask>(&mut self, tasks: &mut [T], rank: usize) {
        // Borrow the rank's buffer and give it back emptied, capacity and
        // all, so the resume → deliver cycle allocates nothing once grown.
        let mut sent = std::mem::take(tasks[rank].proc_mut().outbox());
        for (dest, msg) in sent.drain(..) {
            if let Some(Waiting::Recv { src, tag, posted }) = self.waiting[dest] {
                if msg.matches(src, tag) {
                    self.schedule(dest, posted.max(msg.arrives_at));
                }
            }
            tasks[dest].proc_mut().inbox().push(msg);
        }
        *tasks[rank].proc_mut().outbox() = sent;
    }

    /// Commit a yield: register what the rank latched with the state it
    /// waits on, and queue its wake-up if the completion instant is
    /// already known. A yield with nothing latched breaks the `RankTask`
    /// contract: the rank stays unqueued and not waiting, so the deadlock
    /// report names it.
    fn classify(&mut self, rank: usize, cluster: &Cluster, proc: &mut Proc) {
        let Some(pending) = proc.pending() else {
            return;
        };
        match pending {
            PendingOp::Recv { src, tag, .. } => {
                // The clock froze at post time when the op latched.
                let posted = proc.now();
                self.waiting[rank] = Some(Waiting::Recv { src, tag, posted });
                match proc.inbox().best_arrival(src, tag) {
                    Some(arr) => self.schedule(rank, posted.max(arr)),
                    // Otherwise a future send or death wakes it.
                    None => self.degrade_if_peer_gone(rank, cluster, proc, src, posted),
                }
            }
            PendingOp::Collective { entry, .. } => {
                // Proof: ranks disagreeing on a collective is a program
                // error, a documented panic of the run.
                self.world
                    .register(entry)
                    .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
                // A rank only ever yields on a collective straight out of
                // its arrival (it is next resumed by the release), so this
                // is where the rendezvous is marked for the end-of-phase
                // completion pass.
                self.waiting[rank] = Some(Waiting::Collective);
                self.parked.push(rank);
                self.touched = true;
            }
        }
    }

    /// A blocked receive with no match in flight whose peer is gone for
    /// good completes degraded: hand the rank the instant and queue it.
    fn degrade_if_peer_gone(
        &mut self,
        rank: usize,
        cluster: &Cluster,
        proc: &mut Proc,
        src: usize,
        posted: VirtualTime,
    ) {
        if self.board.peer_gone(rank, src) {
            let due = degraded_due(cluster, rank, src, posted);
            proc.wake(Wake::PeerDead(due));
            self.schedule(rank, due);
        }
    }

    /// A rank died this phase: re-examine every blocked receive (its peer
    /// may now be gone for good). Runs once per phase, after all commits —
    /// the death board is final by then, and `schedule` keeps the earliest
    /// wake-up, so one pass converges.
    fn rescan_recvs_after_death<T: RankTask>(&mut self, tasks: &mut [T], cluster: &Cluster) {
        for (rank, task) in tasks.iter_mut().enumerate() {
            if let Some(Waiting::Recv { src, tag, posted }) = self.waiting[rank] {
                // A matching in-flight message still completes normally
                // (pre-death sends deliver); only a matchless wait degrades.
                let proc = task.proc_mut();
                if proc.inbox().best_arrival(src, tag).is_none() {
                    self.degrade_if_peer_gone(rank, cluster, proc, src, posted);
                }
            }
        }
    }

    /// The collective control plane, run once per phase after every due
    /// rank has committed: try to complete the world's rendezvous if a
    /// rank registered with it — or, after a death, if it is open at all
    /// (the membership shrank, so the arrivals so far may now suffice). A
    /// completed collective releases all its waiters as one
    /// [`ReadyBatch`].
    ///
    /// Deferring completion to this point is what makes the schedule
    /// independent of commit order within the phase: every same-instant
    /// rank has registered before any release is computed.
    fn complete_touched<T: RankTask>(&mut self, tasks: &mut [T], cluster: &Cluster, deaths: bool) {
        let due = std::mem::replace(&mut self.touched, false);
        if !(due || (deaths && !self.parked.is_empty())) {
            return;
        }
        if let Some(res) = self.world.try_complete(cluster, &self.board) {
            self.release(tasks, res);
        }
    }

    /// Release a completed collective's waiters as one batch at its exit,
    /// handing each the result. Exits are strictly after the current phase
    /// instant (entry clocks include the MPI call overhead), so the batch
    /// never feeds back into the running phase.
    fn release<T: RankTask>(&mut self, tasks: &mut [T], res: CollectiveResult) {
        self.parked.sort_unstable();
        let mut ranks = self.batch_pool.pop().unwrap_or_default();
        ranks.clear();
        for &rank in &self.parked {
            self.gens[rank] += 1;
            self.scheduled[rank] = Some(res.exit);
            self.waiting[rank] = None;
            ranks.push((rank, self.gens[rank]));
            tasks[rank].proc_mut().wake(Wake::Collective(res));
        }
        // Emptied in place: the list keeps its capacity.
        self.parked.clear();
        self.batches.push(ReadyBatch {
            at: res.exit,
            next: 0,
            ranks,
        });
    }

    /// What `rank` waits on, for the deadlock report.
    fn describe_wait<T: RankTask>(&mut self, tasks: &mut [T], rank: usize) -> String {
        let any = |wild: bool, v: String| if wild { "ANY".to_string() } else { v };
        match self.waiting[rank] {
            Some(Waiting::Recv { src, tag, .. }) => format!(
                "rank {rank}: recv(src={}, tag={}) with {} unmatched message(s) in its inbox",
                any(src == ANY_SOURCE, src.to_string()),
                any(tag == ANY_TAG, tag.to_string()),
                tasks[rank].proc_mut().inbox().len(),
            ),
            Some(Waiting::Collective) => {
                let (op, arrived, required) = self.world.progress(&self.board);
                format!("rank {rank}: {op:?} on World with {arrived}/{required} ranks arrived")
            }
            // Every other unfinished rank is queued or waits on something.
            None => format!("rank {rank}: yielded with no pending operation"),
        }
    }
}

/// Minimum number of same-instant tasks before parallel dispatch pays for
/// its synchronization; below this the phase resumes serially even with
/// `workers > 1`.
const PAR_MIN: usize = 256;

/// What one resume hands the commit step: `Ready(())` means the rank's
/// output already sits in its slot of the run's outputs.
type ResumeOutcome = Result<TaskPoll<()>, Box<dyn Any + Send>>;

/// Resume `task` to its next yield point. A finished rank's output moves
/// straight into `output`, so each output exists once — the phase buffer
/// carries only the outcome.
fn resume_into<T: RankTask>(task: &mut T, output: &mut Option<T::Output>) -> ResumeOutcome {
    std::panic::catch_unwind(AssertUnwindSafe(|| match task.resume() {
        TaskPoll::Ready(out) => {
            *output = Some(out);
            TaskPoll::Ready(())
        }
        TaskPoll::Yielded => TaskPoll::Yielded,
    }))
}

impl World {
    /// Run every rank as a resumable task on the event-driven virtual-time
    /// scheduler. `make` builds rank `r`'s task from its [`Proc`];
    /// `on_death` converts a fail-stopped task into its output.
    ///
    /// `workers > 1` resumes same-instant ranks on a scoped worker pool;
    /// effects still commit in ascending rank order, so virtual times,
    /// stats, and traces are bit-identical for every worker count. One
    /// process handles tens of thousands of ranks.
    ///
    /// # Panics
    ///
    /// With `"rank N panicked: ..."` if a task panics with a non-death
    /// payload (a mismatched retry of a latched operation included), with
    /// `"rank N: collective mismatch ..."` if ranks disagree on a
    /// collective, and with a deadlock report
    /// naming what the first blocked ranks wait on if the event queue
    /// drains while unfinished tasks remain.
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
        let cluster = &self.cluster;
        let mut tasks: Vec<T> = (0..size)
            .map(|rank| make(rank, Proc::new(rank, size, cluster.clone())))
            .collect();
        let mut outputs: Vec<Option<T::Output>> = (0..size).map(|_| None).collect();
        let mut finished = vec![false; size];
        let mut q = EventQueue::new(size);
        let mut live = size;
        let mut results: Vec<Option<ResumeOutcome>> = Vec::new();

        // Phase accounting, read by the benchmark's `ring8k-sched`
        // workload (`perf/`, its `simmpi.*_ms` layers). Aggregates are
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
                let waits: Vec<String> = (0..size)
                    .filter(|&r| !finished[r])
                    .take(8)
                    .map(|r| q.describe_wait(&mut tasks, r))
                    .collect();
                // Proof: the documented deadlock report of the run.
                panic!(
                    "simmpi deadlock: event queue is empty with {live} rank(s) still \
                     blocked; the first {} wait on:\n  {}",
                    waits.len(),
                    waits.join("\n  ")
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
                // `due` is ascending, so consecutive chunks own disjoint
                // rank windows: each worker gets its window of the tasks
                // and of the outputs as plain sub-slices.
                let (mut tasks_rest, mut outputs_rest) = (&mut tasks[..], &mut outputs[..]);
                let mut base = 0;
                std::thread::scope(|s| {
                    for (due_chunk, res_chunk) in due.chunks(chunk).zip(results.chunks_mut(chunk)) {
                        let Some(&last) = due_chunk.last() else {
                            continue;
                        };
                        let (window_tasks, rest) =
                            std::mem::take(&mut tasks_rest).split_at_mut(last + 1 - base);
                        tasks_rest = rest;
                        let (window_outputs, rest) =
                            std::mem::take(&mut outputs_rest).split_at_mut(last + 1 - base);
                        outputs_rest = rest;
                        let window_base = std::mem::replace(&mut base, last + 1);
                        s.spawn(move || {
                            for (slot, &rank) in res_chunk.iter_mut().zip(due_chunk) {
                                let i = rank - window_base;
                                *slot =
                                    Some(resume_into(&mut window_tasks[i], &mut window_outputs[i]));
                            }
                        });
                    }
                });
            } else {
                for (slot, &rank) in results.iter_mut().zip(&due) {
                    *slot = Some(resume_into(&mut tasks[rank], &mut outputs[rank]));
                }
            }
            if let Some(t) = t_resume {
                resume_ns += t.elapsed().as_nanos() as u64;
            }

            // Commit phase, ascending rank order (`due` is sorted): retire
            // finished ranks, deliver sends, register waits, mark deaths.
            // This is the only place one rank's effects reach another.
            let t_commit = profiling.then(Instant::now);
            let mut deaths = false;
            for (slot, &rank) in results.iter_mut().zip(&due) {
                // Proof: the resume step filled one slot per due rank.
                match slot.take().expect("every due rank was resumed") {
                    Ok(TaskPoll::Ready(())) => {
                        finished[rank] = true;
                        live -= 1;
                        q.deliver(&mut tasks, rank);
                    }
                    Ok(TaskPoll::Yielded) => {
                        q.deliver(&mut tasks, rank);
                        q.classify(rank, cluster, tasks[rank].proc_mut());
                    }
                    Err(payload) => {
                        if let Some(death) = death_in_payload(&*payload) {
                            let out = on_death(death, &mut tasks[rank]);
                            outputs[rank] = Some(out);
                            finished[rank] = true;
                            live -= 1;
                            // Pre-death sends deliver before the flag
                            // flips, so "dead and no match" is final.
                            q.deliver(&mut tasks, rank);
                            q.board.mark_dead(rank);
                            deaths = true;
                        } else {
                            let msg = payload
                                .downcast_ref::<String>()
                                .map(String::as_str)
                                .or_else(|| payload.downcast_ref::<&str>().copied())
                                .unwrap_or("<non-string panic>");
                            // Proof: the documented `rank N panicked` of the run.
                            panic!("rank {rank} panicked: {msg}");
                        }
                    }
                }
            }
            if let Some(t) = t_commit {
                commit_ns += t.elapsed().as_nanos() as u64;
            }

            // Control plane: death fallout, then collective completion.
            let t_complete = profiling.then(Instant::now);
            if deaths {
                q.rescan_recvs_after_death(&mut tasks, cluster);
            }
            q.complete_touched(&mut tasks, cluster, deaths);
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
        // Proof: `live` reached 0, and every rank that left it stored its
        // output (`resume_into` on `Ready`, `on_death` on a death).
        outputs
            .into_iter()
            .map(|o| o.expect("every rank produced an output"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::node::Work;
    use cluster_sim::ClusterConfig;
    use std::sync::Arc;

    fn quiet_world(ranks: usize) -> World {
        World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
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

    /// A completed operation finishes the task; a pending one yields it.
    fn finish<T>(polled: Poll<T>) -> TaskPoll<T> {
        match polled {
            Poll::Ready(value) => TaskPoll::Ready(value),
            Poll::Pending => TaskPoll::Yielded,
        }
    }

    #[test]
    fn barrier_equalizes_unequal_clocks() {
        let ends = quiet_world(8).run_event_workers(
            1,
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
        assert!(ends.iter().all(|t| *t == ends[0]));
        assert!(
            ends[0] >= VirtualTime(8000),
            "the slowest rank sets the exit"
        );
    }

    #[test]
    fn wildcard_recv_collects_all_senders() {
        let totals = quiet_world(4).run_event_workers(
            1,
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

    /// The panic message of a run expected to fail, and how long it took.
    fn failure_of<T, F>(world: World, make: F) -> String
    where
        T: RankTask + Send,
        T::Output: Send,
        F: FnMut(usize, Proc) -> T,
    {
        let started = Instant::now();
        let run = || world.run_event_workers(1, make, |_, _| unreachable!("no deaths planned"));
        let payload = std::panic::catch_unwind(AssertUnwindSafe(run))
            .err()
            .expect("the run must fail");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "failures are diagnosed immediately, not after a timeout"
        );
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn deadlock_report_names_the_receives() {
        // Both ranks receive first: nobody ever sends.
        let msg = failure_of(quiet_world(2), |_, proc| StepTask {
            proc,
            step: |p: &mut Proc| finish(p.recv(1 - p.rank(), 9).map(|info| info.value)),
        });
        assert!(msg.contains("simmpi deadlock"), "{msg}");
        assert!(msg.contains("2 rank(s) still blocked"), "{msg}");
        assert!(msg.contains("rank 0: recv(src=1, tag=9)"), "{msg}");
        assert!(msg.contains("rank 1: recv(src=0, tag=9)"), "{msg}");
        assert!(msg.contains("0 unmatched message(s)"), "{msg}");
    }

    #[test]
    fn deadlock_report_names_the_barrier_and_who_arrived() {
        // Rank 2 never enters the barrier the other two wait in.
        let msg = failure_of(quiet_world(3), |_, proc| StepTask {
            proc,
            step: |p: &mut Proc| match p.rank() {
                2 => TaskPoll::Ready(()),
                _ => finish(p.barrier()),
            },
        });
        assert!(msg.contains("2 rank(s) still blocked"), "{msg}");
        assert!(
            msg.contains("rank 0: Barrier on World with 2/3 ranks arrived"),
            "{msg}"
        );
    }

    /// A task that yields with nothing latched is never resumed; the
    /// deadlock report names it instead of the run hanging.
    #[test]
    fn deadlock_report_names_a_yield_with_nothing_pending() {
        let msg = failure_of(quiet_world(2), |_, proc| StepTask {
            proc,
            step: |p: &mut Proc| match p.rank() {
                0 => TaskPoll::Yielded,
                _ => TaskPoll::Ready(()),
            },
        });
        assert!(msg.contains("1 rank(s) still blocked"), "{msg}");
        assert!(
            msg.contains("rank 0: yielded with no pending operation"),
            "{msg}"
        );
    }

    /// A task's own panic surfaces labelled with its rank, while its peers
    /// are parked in a barrier.
    #[test]
    fn task_panic_is_labelled() {
        let msg = failure_of(quiet_world(4), |_, proc| StepTask {
            proc,
            step: |p: &mut Proc| {
                if p.rank() == 1 {
                    p.compute(Work::cpu(50_000), 0.0);
                    panic!("boom");
                }
                finish(p.barrier())
            },
        });
        assert!(msg.contains("rank 1 panicked: boom"), "{msg}");
    }

    /// Three barrier rounds with rank-dependent compute in between, as a
    /// yielding task.
    fn barrier_rounds_task(proc: Proc) -> impl RankTask<Output = VirtualTime> + Send {
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
                if matches!(p.barrier(), Poll::Pending) {
                    return TaskPoll::Yielded;
                }
            },
        }
    }

    #[test]
    fn scales_to_thousands_of_ranks_in_one_thread() {
        let ends = quiet_world(2048).run_event_workers(
            1,
            |_, proc| barrier_rounds_task(proc),
            |_, _| unreachable!(),
        );
        assert!(ends.iter().all(|t| *t == ends[0]));
        assert!(ends[0] > VirtualTime::ZERO);
    }

    /// 2,048 ranks on 1 vs 4 workers: the due sets exceed `PAR_MIN`, so
    /// the parallel dispatch path actually runs, and the final instants
    /// must be bitwise identical.
    #[test]
    fn parallel_dispatch_matches_serial() {
        let run = |workers: usize| {
            quiet_world(2048).run_event_workers(
                workers,
                |_, proc| barrier_rounds_task(proc),
                |_, _| unreachable!(),
            )
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn backend_parse_accepts_worker_counts() {
        assert_eq!(SimBackend::parse("event"), Some(SimBackend::event()));
        assert_eq!(SimBackend::default(), SimBackend::event());
        assert_eq!(
            SimBackend::parse("event:8"),
            Some(SimBackend::Event { workers: 8 })
        );
        assert_eq!(SimBackend::Event { workers: 8 }.workers(), 8);
        assert_eq!(SimBackend::parse("event:0"), None);
        assert_eq!(SimBackend::parse("event:x"), None);
        assert_eq!(SimBackend::parse("threads"), None);
    }
}
