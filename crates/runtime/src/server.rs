//! The analysis server (§5.4): construction, durability and its session
//! API.
//!
//! vSensor dedicates one process to inter-process analysis: every rank
//! periodically ships its buffered slice records in batches; the server
//! normalizes them against *global* standards (the fastest record of each
//! sensor/group across all ranks, for process-invariant sensors) and
//! accumulates per-component performance matrices. It also counts the bytes
//! it receives — the paper's data-volume comparison against tracing tools
//! (8.8 MB vs 501.5 MB for the cg.D.128 run) falls out of this counter.
//!
//! [`AnalysisServer`] is one type: the struct and its data path (one plain
//! state behind one lock, bounded-memory accumulators, incremental
//! detection emitting [`VarianceAlert`]s mid-run) are in [`crate::engine`];
//! this module holds how a server comes to exist — fresh, durable, or
//! rebuilt from a write-ahead log — plus the session handle and the result
//! types.
//!
//! # Session API
//!
//! ```text
//! let session = server.session();
//! session.ingest(batch, arrival)?;   // -> IngestReceipt
//! session.poll_events();             // -> Vec<VarianceAlert>, mid-run
//! let result = session.close(end);   // -> ServerResult, seals the server
//! ```
//!
//! The session is the one front door for telemetry, so interim and final
//! views cannot disagree by construction.

use crate::config::RuntimeConfig;
use crate::control::ControlStats;
use crate::detect::VarianceEvent;
use crate::engine::DeathRecord;
pub use crate::engine::{AnalysisServer, IngestReceipt, ServerLoad, ShardLoad, VarianceAlert};
use crate::error::{IngestError, RuntimeError};
use crate::matrix::PerformanceMatrix;
use crate::record::{SensorInfo, SensorKind};
use crate::transport::TelemetryBatch;
use crate::wal::{WalHeader, WriteAheadLog};
use cluster_sim::time::{Duration, VirtualTime};
use std::collections::HashMap;
use std::sync::Arc;
use vsensor_lang::SensorId;

/// Running ingest counters, observable mid-run without building a result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Total bytes received (batching overhead included).
    pub bytes_received: u64,
    /// Batches accepted.
    pub batches: u64,
    /// Records absorbed.
    pub records: u64,
    /// Records rejected for naming unknown sensors, plus batches naming
    /// out-of-range ranks.
    pub malformed: u64,
}

impl AnalysisServer {
    /// Create a *durable* server: every arriving batch is appended to an
    /// in-memory [`WriteAheadLog`] before processing (under the engine's
    /// state lock — log order is processing order) and the engine
    /// checkpoints itself into the log every detection pass.
    /// The returned log handle outlives the server; after a crash,
    /// [`AnalysisServer::recover`] rebuilds an equivalent server from it.
    pub fn try_new_durable(
        ranks: usize,
        sensors: Vec<SensorInfo>,
        config: RuntimeConfig,
    ) -> Result<(Self, Arc<WriteAheadLog>), RuntimeError> {
        let server = Self::try_new(ranks, sensors.clone(), config.clone())?;
        let wal = Arc::new(WriteAheadLog::new(WalHeader {
            ranks,
            sensors,
            config,
        }));
        Ok((server.into_primary(&wal), wal))
    }

    /// Rebuild a crashed durable server from its write-ahead log — an
    /// empty engine from the header, one `catch_up` from the start of the
    /// log: the newest intact checkpoint, then the batch tail behind it
    /// through the normal ingest path — and re-attach the log so the
    /// recovered server keeps journaling. Because the log order is the
    /// order the engine processed batches in, the recovered engine state —
    /// and hence the final [`ServerResult`] — is bitwise identical to the
    /// crash-free run's.
    ///
    /// The WAL handle is explicit — recovery has no process-global state,
    /// so one process can recover any number of tenants, each from its
    /// own log.
    pub fn recover(wal: &Arc<WriteAheadLog>) -> Result<Self, RuntimeError> {
        let (server, _) = Self::replay_from(wal)?;
        Ok(server.into_primary(wal))
    }

    /// Rebuild engine state from a WAL **without** attaching the log — a
    /// read-only replay, which is what a hot standby is: the replica must
    /// not journal its own replay back into the primary's log (that would
    /// double-append every batch). Returns the replica and its read
    /// cursor, which the next `catch_up` resumes from.
    pub fn replay_from(wal: &Arc<WriteAheadLog>) -> Result<(Self, usize), RuntimeError> {
        let mut server = Self::empty_for(wal)?;
        let cursor = server.catch_up(wal, 0);
        Ok((server, cursor))
    }

    /// The engine the log's header describes, before its first batch.
    pub(crate) fn empty_for(wal: &WriteAheadLog) -> Result<Self, RuntimeError> {
        let header = wal.header().clone();
        Self::try_new(header.ranks, header.sensors, header.config)
    }

    /// The one way engine state is read out of a log: restore the
    /// checkpoint [`WriteAheadLog::read_from`]`(cursor)` seeded from, if
    /// any, re-ingest its batch tail through the normal ingest path, return
    /// the new cursor. Errors replay too: corrupt and malformed batches
    /// must reproduce their counters, exactly as they did live. For a
    /// server that does not journal (yet) — `&mut` keeps it unshared.
    pub(crate) fn catch_up(&mut self, wal: &WriteAheadLog, cursor: usize) -> usize {
        debug_assert!(self.wal().is_none(), "a replay must not be journaled again");
        let replay = wal.read_from(cursor);
        if let Some(snapshot) = replay.snapshot {
            self.restore(snapshot);
        }
        for (batch, arrival) in replay.tail {
            let _ = self.ingest(&batch, arrival);
        }
        replay.cursor
    }

    /// Open an ingest session. Sessions are cheap borrow handles; any
    /// number may exist concurrently, all feeding the same engine.
    pub fn session(&self) -> IngestSession<'_> {
        IngestSession { server: self }
    }
}

/// A live ingest session: the one front door for streaming telemetry in
/// and results out.
///
/// Borrowed from an [`AnalysisServer`]; cheap, `Sync`, and safe to hold
/// per host thread. Closing any session seals the shared server —
/// subsequent ingests fail with [`IngestError::Closed`].
pub struct IngestSession<'a> {
    server: &'a AnalysisServer,
}

impl IngestSession<'_> {
    /// Stream one sequence-numbered batch into the engine at virtual
    /// instant `arrival`.
    ///
    /// `Ok` means the delivery deserves an acknowledgement: either the
    /// batch was absorbed, or it was a `(rank, seq)` duplicate of one that
    /// already was (`receipt.duplicate`). `Err` distinguishes retryable
    /// corruption from permanent rejection — see [`IngestError`].
    pub fn ingest(
        &self,
        batch: TelemetryBatch,
        arrival: VirtualTime,
    ) -> Result<IngestReceipt, IngestError> {
        self.server.ingest(&batch, arrival)
    }

    /// Drain detection-stream alerts emitted since the last poll (by any
    /// session or the server handle — the stream is shared).
    pub fn poll_events(&self) -> Vec<VarianceAlert> {
        self.server.poll_events()
    }

    /// Close the run: seal the server against further ingest and build the
    /// final result over `[0, run_end)`.
    pub fn close(self, run_end: VirtualTime) -> ServerResult {
        self.server.close();
        self.server.interim(run_end)
    }
}

/// Per-rank telemetry delivery quality, as observed by the server. With
/// the direct (lossless) path every rank reports a ratio of 1.0 and zero
/// anomalies; under injected faults these numbers tell the report how much
/// of the evidence went missing.
#[derive(Clone, Debug)]
pub struct DeliveryQuality {
    /// The rank.
    pub rank: usize,
    /// Batches accepted (first copies only).
    pub accepted: u64,
    /// Redundant deliveries discarded by `(rank, seq)` dedup.
    pub duplicates: u64,
    /// Batches rejected by the CRC check.
    pub corrupt: u64,
    /// Sequence numbers never seen below the highest seen — batches lost
    /// for good (drops whose retries also failed).
    pub gaps: u64,
    /// Batches that arrived after a later-sequenced batch.
    pub out_of_order: u64,
    /// `accepted / (max_seq + 1)` — 1.0 means nothing is missing.
    pub delivery_ratio: f64,
    /// Mean send→arrival latency over accepted batches.
    pub mean_latency: Duration,
}

impl DeliveryQuality {
    /// Whether any telemetry from this rank was lost or damaged.
    pub fn degraded(&self) -> bool {
        self.gaps > 0 || self.corrupt > 0 || self.delivery_ratio < 1.0
    }
}

/// Per-sensor aggregate for "which source location degraded" reporting.
#[derive(Clone, Debug)]
pub struct SensorSummary {
    /// The sensor.
    pub sensor: SensorId,
    /// Its source location.
    pub location: String,
    /// Its component.
    pub kind: SensorKind,
    /// Mean normalized performance over all its records.
    pub mean_perf: f64,
    /// Records received for it.
    pub records: u64,
}

/// Final analysis output.
pub struct ServerResult {
    /// One matrix per component type.
    pub matrices: HashMap<SensorKind, PerformanceMatrix>,
    /// Detected variance events, sorted by time.
    pub events: Vec<VarianceEvent>,
    /// Per-sensor aggregates, worst mean performance first.
    pub sensor_summary: Vec<SensorSummary>,
    /// Total data received.
    pub bytes_received: u64,
    /// Batches received.
    pub batches: u64,
    /// Records received.
    pub records: usize,
    /// Per-rank delivery quality (sequence-numbered ingest path only;
    /// ranks using the legacy direct path report a perfect 1.0 ratio).
    pub delivery: Vec<DeliveryQuality>,
    /// Records rejected for naming unknown sensors.
    pub malformed_records: u64,
    /// Server-side processing load (worker busy clocks, detection cost).
    pub load: ServerLoad,
    /// Ranks the engine believes fail-stopped (gossip notice or liveness
    /// timeout), in rank order — the report's "failed ranks" section.
    pub failed_ranks: Vec<DeathRecord>,
    /// Control-plane counters (`None` when the control plane is off).
    pub control: Option<ControlStats>,
}

impl ServerResult {
    /// Matrix for one component type. [`RuntimeError::UnknownKind`] if no
    /// matrix exists for it — possible once kinds become extensible, and
    /// previously a panic.
    pub fn matrix(&self, kind: SensorKind) -> Result<&PerformanceMatrix, RuntimeError> {
        self.matrices
            .get(&kind)
            .ok_or(RuntimeError::UnknownKind(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynrules::Bucket;
    use crate::record::SliceRecord;

    fn sensor_info(id: u32, kind: SensorKind, invariant: bool) -> SensorInfo {
        SensorInfo {
            sensor: SensorId(id),
            kind,
            process_invariant: invariant,
            location: format!("test:{id}"),
        }
    }

    fn rec(sensor: u32, slice: u64, avg_us: u64) -> SliceRecord {
        SliceRecord {
            sensor: SensorId(sensor),
            slice,
            avg: Duration::from_micros(avg_us),
            count: 10,
            bucket: Bucket(0),
        }
    }

    fn default_server(ranks: usize) -> AnalysisServer {
        AnalysisServer::try_new(
            ranks,
            vec![sensor_info(0, SensorKind::Computation, true)],
            RuntimeConfig::default(),
        )
        .expect("valid config")
    }

    /// Stream loose records through the session API, one batch per call,
    /// with automatic per-test sequence numbering keyed on the slice.
    fn send(s: &AnalysisServer, rank: usize, seq: u64, records: Vec<SliceRecord>) {
        let t = VirtualTime::from_micros(seq);
        s.session()
            .ingest(TelemetryBatch::new(rank, seq, t, records), t)
            .expect("valid batch");
    }

    #[test]
    fn counts_bytes_and_batches() {
        use crate::engine::BATCH_HEADER_BYTES;
        let s = default_server(2);
        send(&s, 0, 0, vec![rec(0, 0, 10), rec(0, 1, 10)]);
        send(&s, 1, 0, vec![rec(0, 0, 10)]);
        let stats = s.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.records, 3);
        assert_eq!(
            stats.bytes_received,
            2 * BATCH_HEADER_BYTES + 3 * SliceRecord::WIRE_BYTES
        );
    }

    #[test]
    fn cross_rank_normalization_flags_slow_rank() {
        // Rank 1 is consistently 2x slower on an invariant sensor: with a
        // *global* standard its normalized perf is 0.5 even though it is
        // self-consistent.
        let s = default_server(2);
        for slice in 0..1000 {
            send(&s, 0, slice, vec![rec(0, slice, 10)]);
            send(&s, 1, slice, vec![rec(0, slice, 20)]);
        }
        let result = s.session().close(VirtualTime::from_secs(1));
        let m = result.matrix(SensorKind::Computation).unwrap();
        assert!(m.cell(0, 0).unwrap() > 0.95);
        assert!(m.cell(1, 0).unwrap() < 0.55);
        assert!(
            !result.events.is_empty(),
            "slow rank must surface as an event"
        );
        assert_eq!(result.events[0].first_rank, 1);
    }

    #[test]
    fn rank_dependent_sensor_uses_local_standard() {
        let s = AnalysisServer::try_new(
            2,
            vec![sensor_info(0, SensorKind::Computation, false)],
            RuntimeConfig::default(),
        )
        .expect("valid config");
        for slice in 0..1000 {
            send(&s, 0, slice, vec![rec(0, slice, 10)]);
            send(&s, 1, slice, vec![rec(0, slice, 20)]); // legitimately more work
        }
        let result = s.session().close(VirtualTime::from_secs(1));
        let m = result.matrix(SensorKind::Computation).unwrap();
        // Both ranks normalize to ~1.0 against their own standards.
        assert!(m.cell(1, 0).unwrap() > 0.95);
        assert!(result.events.is_empty(), "{:?}", result.events);
    }

    #[test]
    fn temporal_degradation_appears_in_the_right_bins() {
        let s = default_server(1);
        // 10 s run, 200 ms bins; sensor slows 3x during [4 s, 6 s).
        for slice in 0..10_000u64 {
            let t_us = slice * 1000;
            let avg = if (4_000_000..6_000_000).contains(&t_us) {
                30
            } else {
                10
            };
            send(&s, 0, slice, vec![rec(0, slice, avg)]);
        }
        let result = s.session().close(VirtualTime::from_secs(10));
        let m = result.matrix(SensorKind::Computation).unwrap();
        assert!(m.cell(0, 10).unwrap() > 0.9, "before: fine");
        assert!(m.cell(0, 25).unwrap() < 0.4, "during: degraded");
        assert!(m.cell(0, 45).unwrap() > 0.9, "after: fine");
        let ev = &result.events[0];
        // Bins 20..30 correspond to seconds 4-6.
        assert!(ev.start_bin >= 19 && ev.start_bin <= 21, "{ev:?}");
        assert!(ev.end_bin >= 29 && ev.end_bin <= 31, "{ev:?}");
    }

    #[test]
    fn interim_results_refine_as_data_arrives() {
        // The on-line workflow: interim reads show variance as soon as the
        // degraded slices arrive, before the run ends.
        let s = default_server(1);
        for slice in 0..200 {
            send(&s, 0, slice, vec![rec(0, slice, 10)]);
        }
        let early = s.interim(VirtualTime::from_millis(200));
        assert!(early.events.is_empty(), "healthy so far");
        for slice in 200..600 {
            send(&s, 0, slice, vec![rec(0, slice, 40)]); // 4x slowdown begins
        }
        let mid = s.interim(VirtualTime::from_millis(600));
        assert!(!mid.events.is_empty(), "variance visible mid-run");
        // Interim reads do not consume state: close still sees everything.
        let fin = s.session().close(VirtualTime::from_millis(600));
        assert_eq!(fin.records, 600);
    }

    #[test]
    fn sensor_summary_orders_worst_first() {
        let s = AnalysisServer::try_new(
            1,
            vec![
                sensor_info(0, SensorKind::Computation, true),
                sensor_info(1, SensorKind::Network, true),
            ],
            RuntimeConfig::default(),
        )
        .expect("valid config");
        for slice in 0..100 {
            // Sensor 0: steady. Sensor 1: degrades over time.
            send(&s, 0, slice * 2, vec![rec(0, slice, 10)]);
            send(&s, 0, slice * 2 + 1, vec![rec(1, slice, 10 + slice / 10)]);
        }
        let result = s.session().close(VirtualTime::from_millis(100));
        assert_eq!(result.sensor_summary.len(), 2);
        assert_eq!(result.sensor_summary[0].sensor, SensorId(1), "worst first");
        assert!(result.sensor_summary[0].mean_perf < result.sensor_summary[1].mean_perf);
        assert!(result.sensor_summary[1].mean_perf > 0.99);
        assert_eq!(result.sensor_summary[0].records, 100);
    }

    #[test]
    fn matrices_split_by_component() {
        let s = AnalysisServer::try_new(
            1,
            vec![
                sensor_info(0, SensorKind::Computation, true),
                sensor_info(1, SensorKind::Network, true),
            ],
            RuntimeConfig::default(),
        )
        .expect("valid config");
        send(&s, 0, 0, vec![rec(0, 0, 10), rec(1, 0, 50)]);
        let result = s.session().close(VirtualTime::from_millis(10));
        assert!(result
            .matrix(SensorKind::Computation)
            .unwrap()
            .cell(0, 0)
            .is_some());
        assert!(result
            .matrix(SensorKind::Network)
            .unwrap()
            .cell(0, 0)
            .is_some());
        assert!(result.matrix(SensorKind::Io).unwrap().cell(0, 0).is_none());
    }

    #[test]
    fn closed_session_rejects_further_ingest() {
        let s = default_server(1);
        send(&s, 0, 0, vec![rec(0, 0, 10)]);
        let result = s.session().close(VirtualTime::from_millis(1));
        assert_eq!(result.records, 1);
        let t = VirtualTime::from_millis(2);
        let err = s
            .session()
            .ingest(TelemetryBatch::new(0, 1, t, vec![rec(0, 1, 10)]), t)
            .unwrap_err();
        assert_eq!(err, IngestError::Closed);
        assert!(!err.is_retryable());
    }

    #[test]
    fn receipts_describe_the_ingest() {
        let s = default_server(7);
        let t = VirtualTime::from_millis(1);
        let batch = TelemetryBatch::new(6, 0, t, vec![rec(0, 0, 10), rec(0, 1, 10)]);
        let receipt = s.session().ingest(batch.clone(), t).unwrap();
        assert_eq!(receipt.rank, 6);
        assert_eq!(receipt.shard, 2, "rank 6 % 4 modelled workers");
        assert_eq!(receipt.records, 2);
        assert!(!receipt.duplicate);
        assert!(receipt.bytes > 2 * SliceRecord::WIRE_BYTES);
        // Same (rank, seq) again: acknowledged as a duplicate, nothing
        // double-counted.
        let dup = s.session().ingest(batch, t).unwrap();
        assert!(dup.duplicate);
        assert_eq!(dup.records, 0);
        assert_eq!(s.stats().records, 2);
    }

    #[test]
    fn malformed_and_corrupt_ingest_are_typed_errors() {
        let s = default_server(2);
        let t = VirtualTime::from_millis(1);
        let oob = TelemetryBatch::new(7, 0, t, vec![rec(0, 0, 10)]);
        match s.session().ingest(oob, t).unwrap_err() {
            IngestError::Malformed { rank, ranks } => {
                assert_eq!((rank, ranks), (7, 2));
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let damaged = TelemetryBatch::new(0, 0, t, vec![rec(0, 0, 10)]).corrupted_copy();
        let err = s.session().ingest(damaged, t).unwrap_err();
        assert!(matches!(err, IngestError::Corrupt { rank: 0, seq: 0 }));
        assert!(err.is_retryable());
        assert_eq!(s.stats().malformed, 1);
    }

    #[test]
    fn durable_server_recovers_to_the_same_result() {
        let sensors = vec![sensor_info(0, SensorKind::Computation, true)];
        let (live, wal) =
            AnalysisServer::try_new_durable(2, sensors, RuntimeConfig::default()).unwrap();
        // Millisecond arrivals cross several default 200 ms detect
        // intervals, so the engine checkpoints mid-run.
        for slice in 0..800u64 {
            let t = VirtualTime::from_millis(slice);
            for rank in 0..2 {
                let avg = if rank == 0 { 10 } else { 25 };
                live.session()
                    .ingest(
                        TelemetryBatch::new(rank, slice, t, vec![rec(0, slice, avg)]),
                        t,
                    )
                    .expect("valid batch");
            }
        }
        assert!(wal.snapshot_entries() >= 1, "passes must checkpoint");
        // "Crash": forget the live server entirely, rebuild from the log.
        let end = VirtualTime::from_millis(800);
        let expected = live.session().close(end);
        drop(live);
        let recovered = AnalysisServer::recover(&wal).unwrap();
        let got = recovered.session().close(end);
        assert_eq!(got.events, expected.events);
        assert_eq!(got.records, expected.records);
        assert_eq!(got.bytes_received, expected.bytes_received);
        let (me, mg) = (
            expected.matrix(SensorKind::Computation).unwrap(),
            got.matrix(SensorKind::Computation).unwrap(),
        );
        for rank in 0..2 {
            for bin in 0..me.bins() {
                let (se, ce) = me.cell_raw(rank, bin).unwrap();
                let (sg, cg) = mg.cell_raw(rank, bin).unwrap();
                assert_eq!(se.to_bits(), sg.to_bits());
                assert_eq!(ce, cg);
            }
        }
        // The recovered server is live: it keeps journaling and ingesting.
        assert!(
            recovered
                .session()
                .ingest(
                    TelemetryBatch::new(0, 9999, end, vec![rec(0, 9999, 10)]),
                    end
                )
                .is_err(),
            "recovered server was closed by the result read above"
        );
    }

    #[test]
    fn invalid_config_fails_at_construction() {
        let bad = RuntimeConfig {
            buffer_capacity: 0,
            ..RuntimeConfig::default()
        };
        let err = AnalysisServer::try_new(1, Vec::new(), bad).err().unwrap();
        assert!(
            matches!(err, RuntimeError::InvalidConfig { field, .. } if field == "buffer_capacity")
        );
    }
}
