//! Virtual-time message-passing runtime — the MPI substitute.
//!
//! All *timing* lives on the virtual timeline of [`cluster_sim`]: every
//! rank owns a virtual clock, messages carry the sender's clock, a receive
//! completes at `max(post_time, arrival_time)`, and collectives synchronize
//! all ranks to `max(entry times) + cost(op)`. Because matching is by
//! (source, tag), the virtual-time outcome is deterministic regardless of
//! host scheduling — a "100-second" run finishes in milliseconds of wall
//! time and is exactly reproducible.
//!
//! One backend executes that model: an event-driven virtual-time scheduler
//! ([`World::run_event_workers`], see [`sched`]). Each rank is a resumable
//! [`RankTask`], every blocking [`Proc`] operation is a yield point
//! returning [`Poll`] — `Pending` means "yield and re-poll on resume" — and
//! a global event queue ordered by `(instant, rank)` picks what runs next.
//! One process simulates the paper's 16,384 ranks. There is one way to run
//! a rank: implement [`RankTask`] — the product's interpreter, the
//! bytecode VM, is one, and so is the hand-written task below.
//!
//! The API mirrors the MPI subset the paper's applications use, and no
//! more: blocking send/recv/sendrecv, and barrier, bcast, reduce,
//! allreduce, allgather and alltoall over the whole world (every reduction
//! is a sum), plus simple I/O calls that charge filesystem time.
//!
//! Fail-stop faults: a [`cluster_sim::FaultPlan`] can kill ranks (or whole
//! nodes) mid-run. A dying rank halts via [`DeathUnwind`], which the
//! scheduler turns into the run's `on_death` outcome for that rank;
//! survivors never hang — collectives shrink to the alive membership and
//! receives from dead peers complete degraded after the plan's death
//! timeout (see the [`death`] module).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cluster_sim::node::Work;
//! use cluster_sim::time::VirtualTime;
//! use cluster_sim::ClusterConfig;
//! use simmpi::{Poll, Proc, RankTask, TaskPoll, World};
//!
//! /// Unequal work, then a barrier. The barrier is a yield point: the task
//! /// returns `Yielded` while it is pending and re-polls it when resumed.
//! struct WorkThenBarrier {
//!     proc: Proc,
//!     worked: bool,
//! }
//!
//! impl RankTask for WorkThenBarrier {
//!     type Output = VirtualTime;
//!
//!     fn resume(&mut self) -> TaskPoll<VirtualTime> {
//!         if !self.worked {
//!             let work = Work::cpu(1_000 * (self.proc.rank() as u64 + 1));
//!             self.proc.compute(work, 0.0);
//!             self.worked = true;
//!         }
//!         match self.proc.barrier() {
//!             Poll::Ready(()) => TaskPoll::Ready(self.proc.now()),
//!             Poll::Pending => TaskPoll::Yielded,
//!         }
//!     }
//!
//!     fn proc_mut(&mut self) -> &mut Proc {
//!         &mut self.proc
//!     }
//! }
//!
//! let cluster = Arc::new(ClusterConfig::quiet(4).build());
//! let finals = World::new(cluster).run_event_workers(1,
//!     |_rank, proc| WorkThenBarrier { proc, worked: false },
//!     |_death, _task| unreachable!("no deaths planned"),
//! );
//! // All ranks leave the barrier at the same virtual instant.
//! assert!(finals.iter().all(|t| *t == finals[0]));
//! ```

pub mod collectives;
pub mod death;
mod heap;
pub mod p2p;
pub mod proc;
pub mod sched;
pub mod stats;
pub mod world;

pub use collectives::CollectiveError;
pub use death::DeathUnwind;
pub use p2p::{RecvInfo, ANY_SOURCE, ANY_TAG};
pub use proc::Proc;
pub use sched::{Poll, RankTask, SimBackend, TaskPoll};
pub use stats::ProcStats;
pub use world::World;
