//! Nonblocking point-to-point operations.
//!
//! Real MPI codes overlap communication with computation through
//! `MPI_Isend`/`MPI_Irecv`/`MPI_Wait`. In the virtual-time model a send is
//! already asynchronous (eager injection), so `isend` is free; `irecv`
//! records the *post time* and `wait` completes the match later, charging
//! only the remaining wait — computation performed between post and wait
//! genuinely hides communication latency, exactly like the real thing.

use crate::p2p::RecvInfo;
use cluster_sim::time::VirtualTime;

/// Handle for a posted nonblocking receive. `Copy`, so event-driven
/// callers can re-submit the same request on every poll.
#[derive(Clone, Copy, Debug)]
#[must_use = "an irecv must be completed with Proc::wait"]
pub struct RecvRequest {
    /// Source rank (may be ANY_SOURCE).
    pub(crate) src: usize,
    /// Tag (may be ANY_TAG).
    pub(crate) tag: i64,
    /// Virtual instant the receive was posted.
    pub(crate) posted_at: VirtualTime,
}

/// Handle for a posted nonblocking send. Eager sends complete at post time;
/// the handle exists so code reads like MPI and so a future rendezvous
/// protocol could add real wait time.
#[derive(Clone, Copy, Debug)]
#[must_use = "an isend should be completed with Proc::wait_send"]
pub struct SendRequest {
    /// Virtual instant the send was injected.
    pub(crate) injected_at: VirtualTime,
}

impl RecvRequest {
    /// When the receive was posted.
    pub fn posted_at(&self) -> VirtualTime {
        self.posted_at
    }
}

impl SendRequest {
    /// When the send was injected.
    pub fn injected_at(&self) -> VirtualTime {
        self.injected_at
    }
}

/// Completion info re-exported for convenience.
pub type Completion = RecvInfo;
