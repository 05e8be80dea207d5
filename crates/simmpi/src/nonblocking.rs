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

#[cfg(test)]
mod tests {
    use crate::World;
    use cluster_sim::node::Work;
    use cluster_sim::ClusterConfig;
    use std::sync::Arc;

    fn quiet_world(ranks: usize) -> World {
        World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
    }

    #[test]
    fn overlap_hides_transfer_time() {
        // Receiver posts early, computes while the (large) message is in
        // flight, then waits: the wait is cheaper than a blocking recv
        // issued after the compute.
        let w = quiet_world(2);
        let ends = w.hosted(|mut h| {
            if h.rank() == 0 {
                h.send(1, 10 << 20, 5, 0); // ~1 MB/ms at 10 B/ns => ~1 ms
                h.now()
            } else {
                let req = h.irecv(0, 5);
                h.compute(Work::cpu(2_000_000), 0.0); // 2 ms of useful work
                let info = h.wait(|p| p.wait(req));
                assert_eq!(info.src, 0);
                h.now()
            }
        });
        // The transfer (≈1 ms) is fully hidden behind the 2 ms compute.
        let receiver_end = ends[1].as_nanos();
        assert!(
            receiver_end < 2_200_000,
            "transfer should overlap compute: {receiver_end}ns"
        );
    }

    #[test]
    fn nonblocking_matches_blocking_modulo_call_overhead() {
        // Under the eager protocol the transfer starts at send time either
        // way, so early posting and late blocking receive complete at the
        // same virtual instant — the nonblocking version pays only one
        // extra library-call overhead for the separate post.
        let w = quiet_world(2);
        let ends = w.hosted(|mut h| {
            if h.rank() == 0 {
                h.send(1, 10 << 20, 5, 0);
            } else {
                h.compute(Work::cpu(2_000_000), 0.0);
                h.wait(|p| p.recv(0, 5));
            }
            h.now()
        });
        let w2 = quiet_world(2);
        let ends_nb = w2.hosted(|mut h| {
            if h.rank() == 0 {
                h.send(1, 10 << 20, 5, 0);
            } else {
                let req = h.irecv(0, 5);
                h.compute(Work::cpu(2_000_000), 0.0);
                h.wait(|p| p.wait(req));
            }
            h.now()
        });
        let slack = crate::proc::MPI_CALL_OVERHEAD.as_nanos() * 2;
        assert!(
            ends_nb[1].as_nanos() <= ends[1].as_nanos() + slack,
            "{} vs {}",
            ends_nb[1],
            ends[1]
        );
    }

    #[test]
    fn waitall_completes_in_post_order() {
        let w = quiet_world(3);
        let sums = w.hosted(|mut h| {
            if h.rank() == 0 {
                let r1 = h.irecv(1, 1);
                let r2 = h.irecv(2, 2);
                let infos = h.wait(|p| p.waitall(&[r1, r2]));
                infos.iter().map(|i| i.value).sum::<i64>()
            } else {
                let me = h.rank() as i64;
                h.send(0, 64, me, me * 100);
                0
            }
        });
        assert_eq!(sums[0], 300);
    }

    #[test]
    fn isend_handle_reports_injection_time() {
        let w = quiet_world(2);
        w.hosted(|mut h| {
            if h.rank() == 0 {
                h.compute(Work::cpu(500), 0.0);
                let req = h.isend(1, 128, 9, 7);
                assert!(req.injected_at().as_nanos() >= 500);
                h.wait_send(req);
            } else {
                assert_eq!(h.wait(|p| p.recv(0, 9)).value, 7);
            }
        });
    }
}
