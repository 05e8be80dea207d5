//! The lock-step host: a rank program that cannot *return* at a yield point
//! — a plain closure, or this crate's tree-walking interpreter — as an
//! ordinary [`RankTask`] on simmpi's event scheduler.
//!
//! The program runs on its own OS thread, but only while the scheduler is
//! inside that rank's `resume`: `resume` hands the rank's [`Proc`] by value
//! to the thread and blocks until the thread hands it back, at the next
//! [`Poll::Pending`] or at completion. The `Proc` is therefore with the
//! program while it runs and with the task — where the scheduler reaches it
//! through `proc_mut` — while it is parked, and never in both places. The
//! host knows nothing about MPI semantics: it moves one value back and
//! forth and forwards how the program ended.

use simmpi::{DeathUnwind, Poll, Proc, RankTask, TaskPoll, World};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Rank programs (interpreters) can recurse deeply; debug builds use
/// sizeable frames, so give each rank thread a generous stack.
const RANK_STACK: usize = 16 << 20;

/// How a rank thread ended: its `Proc` and the program's outcome (`None` if
/// the scheduler went away while the rank was parked).
type Ended<R> = Option<(Proc, thread::Result<R>)>;

/// Payload a parked rank thread unwinds with once nobody will resume it.
struct Abandoned;

/// A hosted rank program; see the module docs.
pub struct Hosted<R> {
    /// The rank's handle while its thread is parked or done.
    proc: Option<Proc>,
    resume: Option<Sender<Proc>>,
    parked: Receiver<Proc>,
    thread: Option<JoinHandle<Ended<R>>>,
}

/// The running program's side: the rank's [`Proc`] (by `Deref`) and the
/// way to block on its yield points.
pub struct Lockstep<'h>(&'h mut RankSide);

struct RankSide {
    proc: Option<Proc>,
    resume: Receiver<Proc>,
    parked: Sender<Proc>,
}

/// Run the closure `program` on every rank of `world`, each on the
/// lock-step host, under the serial scheduler; returns the per-rank
/// results in rank order. A rank the fault plan kills yields
/// `on_death(death, its Proc)` instead. Blocking operations go through
/// [`Lockstep::wait`]: `h.wait(|p| p.recv(prev, 7))`.
pub fn run_hosted<R, F, D>(world: &World, program: F, on_death: D) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Lockstep<'_>) -> R + Send + Sync + 'static,
    D: Fn(DeathUnwind, &mut Proc) -> R,
{
    let program = Arc::new(program);
    world.run_event_workers(
        1,
        |_, proc| {
            let program = program.clone();
            Hosted::new(proc, move |h| program(h))
        },
        |death, task| on_death(death, task.proc_mut()),
    )
}

impl<R: Send + 'static> Hosted<R> {
    /// Host `program` for the rank that owns `proc`. The thread starts
    /// parked; the first `resume` starts the program.
    pub fn new<F>(proc: Proc, program: F) -> Self
    where
        F: FnOnce(Lockstep<'_>) -> R + Send + 'static,
    {
        let (resume_tx, resume) = channel();
        let (parked, parked_rx) = channel();
        let thread = thread::Builder::new()
            .name(format!("rank-{}", proc.rank()))
            .stack_size(RANK_STACK)
            .spawn(move || {
                let mut side = RankSide {
                    proc: Some(resume.recv().ok()?),
                    resume,
                    parked,
                };
                // A death or a bug unwinds to here and is re-raised from
                // `resume`, where the scheduler looks for it.
                let outcome = catch_unwind(AssertUnwindSafe(|| program(Lockstep(&mut side))));
                side.proc.take().map(|proc| (proc, outcome))
            })
            .expect("spawn rank thread");
        Hosted {
            proc: Some(proc),
            resume: Some(resume_tx),
            parked: parked_rx,
            thread: Some(thread),
        }
    }
}

impl<R> RankTask for Hosted<R> {
    type Output = R;

    fn resume(&mut self) -> TaskPoll<R> {
        let proc = self.proc.take().expect("a finished rank is not resumed");
        let to_rank = self.resume.as_ref().expect("open until drop");
        to_rank.send(proc).expect("rank thread is parked");
        if let Ok(proc) = self.parked.recv() {
            self.proc = Some(proc);
            return TaskPoll::Yielded;
        }
        // The thread dropped its end: the program is over.
        let thread = self.thread.take().expect("joined once");
        let (proc, outcome) = thread
            .join()
            .expect("the rank thread catches its program's panics")
            .expect("a running rank holds its Proc");
        self.proc = Some(proc);
        match outcome {
            Ok(out) => TaskPoll::Ready(out),
            Err(payload) => resume_unwind(payload),
        }
    }

    fn proc_mut(&mut self) -> &mut Proc {
        self.proc.as_mut().expect("the rank is not running")
    }
}

impl<R> Drop for Hosted<R> {
    /// Leave no thread behind: closing the resume channel makes a
    /// still-parked rank unwind out of its program and exit.
    fn drop(&mut self) {
        self.resume = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Lockstep<'_> {
    /// Hand the `Proc` back to the scheduler and block until the next
    /// resume.
    pub fn park(&mut self) {
        let side = &mut *self.0;
        let proc = side.proc.take().expect("a running rank holds its Proc");
        if side.parked.send(proc).is_ok() {
            if let Ok(proc) = side.resume.recv() {
                side.proc = Some(proc);
                return;
            }
        }
        // `resume_unwind` skips the panic hook: the thread ends silently.
        resume_unwind(Box::new(Abandoned));
    }

    /// Run a yield-point operation to completion, parking on every
    /// `Pending`: `h.wait(|p| p.recv(prev, 7))`.
    pub fn wait<T>(&mut self, mut op: impl FnMut(&mut Proc) -> Poll<T>) -> T {
        loop {
            if let Poll::Ready(value) = op(self) {
                return value;
            }
            self.park();
        }
    }
}

impl Deref for Lockstep<'_> {
    type Target = Proc;

    fn deref(&self) -> &Proc {
        self.0.proc.as_ref().expect("a running rank holds its Proc")
    }
}

impl DerefMut for Lockstep<'_> {
    fn deref_mut(&mut self) -> &mut Proc {
        self.0.proc.as_mut().expect("a running rank holds its Proc")
    }
}

#[cfg(test)]
mod tests {
    //! The host adds nothing: each program below runs both as a hosted
    //! closure and as a hand-written `RankTask`, and the two must agree on
    //! values, instants and stats. The MPI semantics themselves are tested
    //! through closures in `tests/simmpi_closures.rs`.

    use super::*;
    use cluster_sim::node::Work;
    use cluster_sim::time::VirtualTime;
    use cluster_sim::ClusterConfig;
    use simmpi::ProcStats;
    use std::time::{Duration, Instant};

    fn quiet_world(ranks: usize) -> World {
        World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
    }

    /// [`run_hosted`] for a run with no planned death.
    fn hosted<R, F>(world: &World, program: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Lockstep<'_>) -> R + Send + Sync + 'static,
    {
        run_hosted(world, program, |_, _| unreachable!("no deaths planned"))
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

    /// A hand-rolled resumable task: a ring pass, an allreduce and a
    /// barrier written as an explicit state machine (what the interp
    /// crate's VM does generically).
    struct RingTask {
        proc: Proc,
        state: u8,
        got: i64,
        sum: i64,
    }

    type RingOutput = (i64, i64, VirtualTime, ProcStats);

    impl RankTask for RingTask {
        type Output = RingOutput;

        fn resume(&mut self) -> TaskPoll<RingOutput> {
            let p = &mut self.proc;
            let n = p.size();
            let next = (p.rank() + 1) % n;
            let prev = (p.rank() + n - 1) % n;
            loop {
                let polled = match self.state {
                    0 => {
                        if p.rank() == 0 {
                            p.send(next, 8, 0, 5);
                        }
                        Poll::Ready(())
                    }
                    1 => p.recv(prev, 0).map(|info| self.got = info.value),
                    2 => {
                        if p.rank() != 0 {
                            p.send(next, 8, 0, self.got * 2);
                        }
                        Poll::Ready(())
                    }
                    3 => p.allreduce(8, self.got).map(|sum| self.sum = sum),
                    4 => p.barrier(),
                    _ => return TaskPoll::Ready((self.got, self.sum, p.now(), p.stats())),
                };
                if polled.is_pending() {
                    return TaskPoll::Yielded;
                }
                self.state += 1;
            }
        }

        fn proc_mut(&mut self) -> &mut Proc {
            &mut self.proc
        }
    }

    /// [`RingTask`]'s program as a plain closure on the lock-step host.
    fn ring_closure(mut h: Lockstep<'_>) -> RingOutput {
        let n = h.size();
        let next = (h.rank() + 1) % n;
        let prev = (h.rank() + n - 1) % n;
        let got = if h.rank() == 0 {
            h.send(next, 8, 0, 5);
            h.wait(|p| p.recv(prev, 0)).value
        } else {
            let v = h.wait(|p| p.recv(prev, 0)).value;
            h.send(next, 8, 0, v * 2);
            v
        };
        let sum = h.wait(|p| p.allreduce(8, got));
        h.wait(|p| p.barrier());
        (got, sum, h.now(), h.stats())
    }

    /// The same program as a state machine and as a hosted closure yields
    /// identical values, instants and stats.
    #[test]
    fn hosted_closure_matches_state_machine() {
        let machine = quiet_world(3).run_event(
            |_, proc| RingTask {
                proc,
                state: 0,
                got: 0,
                sum: 0,
            },
            |_, _| unreachable!("no deaths planned"),
        );
        let hosted = hosted(&quiet_world(3), ring_closure);
        assert_eq!(machine, hosted);
        let values: Vec<(i64, i64)> = hosted.iter().map(|o| (o.0, o.1)).collect();
        assert_eq!(values, vec![(20, 35), (5, 35), (10, 35)]);
        assert!(hosted.iter().all(|o| o.2 == hosted[0].2), "barrier aligns");
    }

    #[test]
    fn failstop_degrades_recv_identically_on_the_host() {
        let world = || {
            World::new(Arc::new(
                ClusterConfig::quiet(2)
                    .with_faults(
                        cluster_sim::FaultPlan::none()
                            .with_rank_death(0, VirtualTime::from_micros(1)),
                    )
                    .build(),
            ))
        };
        let hosted = run_hosted(
            &world(),
            |mut h| {
                if h.rank() == 0 {
                    h.compute(Work::cpu(10_000), 0.0);
                    h.compute(Work::cpu(10_000), 0.0);
                    None
                } else {
                    Some((h.wait(|p| p.recv(0, 7)), h.stats()))
                }
            },
            |_death, _proc| None,
        );
        let machine = world().run_event(
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
        assert_eq!(hosted, machine);
        let (info, stats) = machine[1].unwrap();
        assert_eq!(stats.peer_dead_recvs, 1);
        assert_eq!(info.bytes, 0);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_is_labelled() {
        hosted(&quiet_world(2), |h| {
            if h.rank() == 1 {
                panic!("boom");
            }
        });
    }

    /// A hosted closure's own panic surfaces labelled with its rank, and
    /// every rank thread — the panicking one and the parked ones — is gone
    /// by the time the run's panic reaches the caller.
    #[test]
    fn hosted_panic_is_labelled_and_leaves_no_thread_behind() {
        let alive = Arc::new(());
        let held = alive.clone();
        let started = Instant::now();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            hosted(&quiet_world(4), move |mut h| {
                // Lives on the rank thread's stack for as long as it runs.
                let _on_stack = held.clone();
                if h.rank() == 1 {
                    h.compute(Work::cpu(50_000), 0.0);
                    panic!("boom");
                }
                h.wait(|p| p.barrier());
            })
        }))
        .expect_err("the run must fail");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "failures are diagnosed immediately, not after a timeout"
        );
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("rank 1 panicked: boom"), "{msg}");
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "a rank thread outlived the run"
        );
    }

    /// Three barrier rounds with rank-dependent compute in between.
    fn barrier_rounds(mut h: Lockstep<'_>) -> VirtualTime {
        for _ in 0..3 {
            let work = Work::cpu(100 + h.rank() as u64);
            h.compute(work, 0.0);
            h.wait(|p| p.barrier());
        }
        h.now()
    }

    /// The same rounds as a yielding task.
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
                if p.barrier().is_pending() {
                    return TaskPoll::Yielded;
                }
            },
        }
    }

    #[test]
    fn hosted_barrier_rounds_match_the_task() {
        let world = quiet_world(16);
        let hosted = hosted(&world, barrier_rounds);
        let machine = world.run_event(|_, proc| barrier_rounds_task(proc), |_, _| unreachable!());
        assert_eq!(hosted, machine);
        assert!(hosted.iter().all(|t| *t == hosted[0]));
    }
}
