//! Per-rank accounting.
//!
//! Every [`crate::Proc`] tallies where its virtual time goes: computation,
//! MPI communication, or I/O. The mpiP-style profiler baseline (and the
//! paper's Figures 18-19) is built directly from these tallies.

use cluster_sim::time::{Duration, VirtualTime};

/// Time and traffic accounting for one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Virtual time spent computing.
    pub compute_time: Duration,
    /// Virtual time spent in MPI calls (including waiting on peers).
    pub mpi_time: Duration,
    /// Virtual time spent in I/O calls.
    pub io_time: Duration,
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Point-to-point messages received.
    pub msgs_received: u64,
    /// Point-to-point bytes sent.
    pub bytes_sent: u64,
    /// Collective operations entered.
    pub collectives: u64,
    /// Distinct computation segments (calls to `compute`), which a
    /// full tracer would record as events.
    pub compute_segments: u64,
    /// I/O calls.
    pub io_calls: u64,
    /// Virtual instant this rank fail-stopped, if the fault plan killed it.
    pub died_at: Option<VirtualTime>,
    /// Receives that completed degraded because the peer was dead.
    pub peer_dead_recvs: u64,
    /// Collectives that completed over a shrunk membership (dead peers).
    pub shrunk_collectives: u64,
}

impl ProcStats {
    /// Total events a full-fidelity tracer (ITAC-style) would log for this
    /// rank: every send, receive, collective, compute segment and I/O call.
    pub fn trace_events(&self) -> u64 {
        self.msgs_sent
            + self.msgs_received
            + self.collectives
            + self.compute_segments
            + self.io_calls
    }
}

impl ProcStats {
    /// Total accounted virtual time.
    pub fn total(&self) -> Duration {
        self.compute_time + self.mpi_time + self.io_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let s = ProcStats {
            compute_time: Duration::from_secs(3),
            mpi_time: Duration::from_secs(1),
            io_time: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(s.total(), Duration::from_secs(4));
    }
}
