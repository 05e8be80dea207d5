//! The differential oracle for the streaming engine: the seed's
//! batch-at-end analysis, refolded from the raw records a run delivered.
//!
//! The product's [`AnalysisServer`] never keeps records: it folds each one
//! into running accumulators and forgets it. This module keeps the
//! algorithm the engine was derived from — collect every record, take each
//! normalization group's standard as the minimum over the whole run, then
//! normalize record by record into the matrices — so tests can hold the
//! streaming fold to it. [`Recorder`] captures the records as a run sends
//! them (the engine's write-ahead log cannot serve: it truncates behind its
//! newest checkpoint), and [`replay`] refolds them against the server the
//! run ended on, borrowing only its configuration, its detection threshold
//! and its fail-stop verdicts.
//!
//! # Contract
//!
//! Streaming and replay agree as follows, and the bound is not to be
//! loosened:
//!
//! * **records** are equal;
//! * **events** are exact: kind, rank range, bin range and cell count;
//! * **matrix cells** agree to within 1e-9 relative, and so do event means.
//!
//! The tolerance is float reassociation and nothing else. The engine's
//! `GroupAcc` keeps `Σ 1/avgᵢ` per group and folds a cell as `std·Σ1/avgᵢ`
//! against the final standard; the oracle adds `std/avgᵢ` record by
//! record. The two sums are equal over the reals — the standard is the
//! minimum of the very `avgᵢ` it divides, so `normalized`'s clamp never
//! binds — and differ in the last bits only because floating-point
//! addition is not associative (Bentley et al.: build-dependent numeric
//! differences come from reassociation). A larger difference is a bug in
//! one of the two folds.

use cluster_sim::time::{Duration, VirtualTime};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};
use vsensor_lang::SensorId;
use vsensor_runtime::history::normalized;
use vsensor_runtime::{
    detect_events, AnalysisServer, AnalysisSink, BatchChannel, Bucket, ControlDirective,
    PerformanceMatrix, RuntimeError, SendOutcome, SensorInfo, SensorKind, SliceRecord,
    TelemetryBatch, VarianceEvent,
};

/// An [`AnalysisSink`] that forwards every call to the sink it wraps and
/// records what the engine accepted: a batch's records, the first time a
/// send of its `(rank, seq)` comes back [`SendOutcome::Acked`].
///
/// That is the engine's acceptance rule, written again independently: an
/// ack is the sender's proof of delivery; a later ack of the same
/// `(rank, seq)` acknowledges a duplicate; a batch naming a rank at or past
/// [`AnalysisServer::ranks`] is acked but refused whole, and a record
/// naming a sensor outside the table is dropped on its own.
pub struct Recorder {
    inner: Arc<dyn AnalysisSink>,
    ranks: usize,
    sensors: usize,
    log: Mutex<Log>,
}

#[derive(Default)]
struct Log {
    acked: HashSet<(usize, u64)>,
    records: Vec<(usize, SliceRecord)>,
}

impl Recorder {
    /// Wrap `inner`, a route into a server built for the `sensors` table.
    pub fn new(inner: Arc<dyn AnalysisSink>, sensors: &[SensorInfo]) -> Self {
        Recorder {
            ranks: inner.server().ranks(),
            inner,
            sensors: sensors.len(),
            log: Mutex::new(Log::default()),
        }
    }

    /// Every accepted record as `(rank, record)`, in acceptance order.
    pub fn records(&self) -> Vec<(usize, SliceRecord)> {
        self.lock().records.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        // A panicking sender leaves the log whole: each push is one step.
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl BatchChannel for Recorder {
    fn send(&self, batch: &TelemetryBatch, now: VirtualTime, attempt: u32) -> SendOutcome {
        let outcome = self.inner.send(batch, now, attempt);
        if outcome == SendOutcome::Acked && batch.rank < self.ranks {
            let log = &mut *self.lock();
            if log.acked.insert((batch.rank, batch.seq)) {
                let known = batch
                    .records
                    .iter()
                    .filter(|r| (r.sensor.0 as usize) < self.sensors);
                log.records.extend(known.map(|&r| (batch.rank, r)));
            }
        }
        outcome
    }

    fn poll_control(&self, rank: usize, now: VirtualTime) -> Vec<ControlDirective> {
        self.inner.poll_control(rank, now)
    }

    fn ack_control(&self, rank: usize, epoch: u64, now: VirtualTime) {
        self.inner.ack_control(rank, epoch, now)
    }
}

impl AnalysisSink for Recorder {
    fn server(&self) -> Arc<AnalysisServer> {
        self.inner.server()
    }
}

/// What [`replay`] recomputes: the parts of a
/// [`vsensor_runtime::ServerResult`] the streaming fold must reproduce.
pub struct Replayed {
    /// One matrix per sensor kind.
    pub matrices: HashMap<SensorKind, PerformanceMatrix>,
    /// Detected events, ordered as the engine orders its result's.
    pub events: Vec<VarianceEvent>,
    /// Records refolded.
    pub records: usize,
}

impl Replayed {
    /// Matrix for one component type, looked up as
    /// [`vsensor_runtime::ServerResult::matrix`] does.
    pub fn matrix(&self, kind: SensorKind) -> Result<&PerformanceMatrix, RuntimeError> {
        self.matrices
            .get(&kind)
            .ok_or(RuntimeError::UnknownKind(kind))
    }
}

/// Refold `records` — `(rank, record)` pairs the engine accepted, as a
/// [`Recorder`] captures them; every sensor id must index `sensors` — the
/// seed's way over `[0, run_end)`: standards as minima over the whole run
/// (across ranks for a process-invariant sensor, per rank otherwise), then
/// [`normalized`] per record into its rank's matrix bin. Ranks `server`
/// believes fail-stopped are masked from their death bin onward, and
/// events are detected at `server`'s configured variance threshold.
pub fn replay(
    server: &AnalysisServer,
    sensors: &[SensorInfo],
    records: &[(usize, SliceRecord)],
    run_end: VirtualTime,
) -> Replayed {
    let config = server.config();
    let group = |rank: usize, rec: &SliceRecord| -> (SensorId, Bucket, Option<usize>) {
        let local = !sensors[rec.sensor.0 as usize].process_invariant;
        (rec.sensor, rec.bucket, local.then_some(rank))
    };
    let mut standards: HashMap<(SensorId, Bucket, Option<usize>), Duration> = HashMap::new();
    for (rank, rec) in records {
        let std = standards.entry(group(*rank, rec)).or_insert(rec.avg);
        *std = (*std).min(rec.avg);
    }

    let bins = (config.matrix_bin(run_end).saturating_add(1)) as usize;
    let mut matrices: HashMap<SensorKind, PerformanceMatrix> = SensorKind::ALL
        .into_iter()
        .map(|kind| {
            let matrix = PerformanceMatrix::new(server.ranks(), bins, config.matrix_bin_width());
            (kind, matrix)
        })
        .collect();
    for (rank, rec) in records {
        let perf = normalized(standards[&group(*rank, rec)], rec.avg);
        let kind = sensors[rec.sensor.0 as usize].kind;
        let matrix = matrices.get_mut(&kind).expect("one matrix per kind");
        matrix.add(*rank, rec.slice / config.slices_per_bin(), perf);
    }
    for death in server.failed_ranks() {
        for matrix in matrices.values_mut() {
            matrix.mark_dead(death.rank, config.matrix_bin(death.at));
        }
    }

    let mut events = Vec::new();
    for kind in SensorKind::ALL {
        let threshold = config.variance_threshold;
        events.extend(detect_events(&matrices[&kind], kind, threshold).unwrap_or_default());
    }
    events.sort_by_key(|e| (e.start_bin, e.first_rank, e.kind));
    Replayed {
        matrices,
        events,
        records: records.len(),
    }
}
