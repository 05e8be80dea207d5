//! The lock-step host: a rank program that cannot *return* at a yield point
//! — a plain closure, or the test-only tree-walking interpreter — as an
//! ordinary [`RankTask`].
//!
//! The program runs on its own OS thread, but only while the scheduler is
//! inside that rank's `resume`: `resume` hands the rank's [`Proc`] by value
//! to the thread and blocks until the thread hands it back, at the next
//! [`Poll::Pending`] or at completion. The `Proc` is therefore with the
//! program while it runs and with the task — where the scheduler reaches it
//! through `proc_mut` — while it is parked, and never in both places. The
//! host knows nothing about MPI semantics: it moves one value back and
//! forth and forwards how the program ended.

use crate::proc::Proc;
use crate::sched::{Poll, RankTask, TaskPoll};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
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
