//! ITAC-style trace-volume accounting.
//!
//! Full tracers record one timestamped event per MPI call, computation
//! segment and I/O operation on every rank. That is what makes them
//! accurate — and what makes them unusable for always-on monitoring at
//! scale: §6.4 measures 501.5 MB of ITAC trace against 8.8 MB of vSensor
//! data for the same cg.D.128 run. This module computes the trace volume a
//! full tracer would have produced for a finished simulated run, from the
//! per-rank event counts.

use simmpi::ProcStats;

/// Bytes per trace event. ITAC/OTF-class formats store ~40-80 bytes per
/// event (timestamps, ids, sizes) before compression; we use a midpoint.
pub(crate) const EVENT_BYTES: u64 = 56;

/// Per-rank fixed overhead (definitions, process metadata).
pub(crate) const RANK_HEADER_BYTES: u64 = 4096;

/// Trace-volume estimate for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceVolume {
    /// Total events across ranks.
    pub events: u64,
    /// Total bytes of trace data.
    pub bytes: u64,
    /// Number of ranks.
    pub ranks: usize,
}

impl TraceVolume {
    /// Compute the volume a full tracer would produce for these stats.
    pub fn from_stats(stats: &[ProcStats]) -> Self {
        let events: u64 = stats.iter().map(|s| s.trace_events()).sum();
        TraceVolume {
            events,
            bytes: events * EVENT_BYTES + stats.len() as u64 * RANK_HEADER_BYTES,
            ranks: stats.len(),
        }
    }

    /// Ratio of this trace volume to a competing data volume (e.g. the
    /// vSensor analysis server's byte counter).
    pub fn ratio_to(&self, other_bytes: u64) -> f64 {
        if other_bytes == 0 {
            f64::INFINITY
        } else {
            self.bytes as f64 / other_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(events_each: u64, ranks: usize) -> Vec<ProcStats> {
        (0..ranks)
            .map(|_| ProcStats {
                msgs_sent: events_each / 2,
                msgs_received: events_each / 2,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn volume_scales_with_events_and_ranks() {
        let v = TraceVolume::from_stats(&stats(1000, 4));
        assert_eq!(v.events, 4000);
        assert_eq!(v.bytes, 4000 * EVENT_BYTES + 4 * RANK_HEADER_BYTES);
    }

    #[test]
    fn ratio_comparison() {
        let v = TraceVolume::from_stats(&stats(100_000, 128));
        // vSensor-style volume should be orders of magnitude smaller.
        let vsensor_bytes = 8_800_000u64;
        assert!(v.ratio_to(vsensor_bytes) > 10.0);
        assert!(v.ratio_to(0).is_infinite());
    }
}
