//! Write-ahead log for the crash-recoverable analysis engine.
//!
//! The engine is an in-memory simulation, so durability is simulated too:
//! the "log" is an append-only in-memory sequence of CRC-framed entries,
//! but the discipline is the real one — every arriving batch is appended
//! *before* it mutates engine state, under the engine's one state lock (log
//! order ≡ processing order), and detection passes append a full
//! [`EngineSnapshot`] — a clone of that state — every pass.
//!
//! Each entry is framed with its own CRC-32 at append time. Recovery
//! ([`crate::AnalysisServer::recover`]) walks frames in order and stops at
//! the first failed check — a torn write or a bit-flipped tail truncates
//! replay instead of feeding a damaged batch into the engine; the number
//! of frames dropped that way is reported in [`RecoveryState::dropped`].
//!
//! Recovery rebuilds a fresh engine from the header, restores the last
//! intact snapshot, and re-ingests the batch tail logged after it. Because
//! replay is a faithful re-execution of the logged ingest order, the
//! recovered engine's [`ServerResult`] is **bitwise identical** to the
//! crash-free run's — the invariant the `fail_stop` suite asserts down to
//! `f64::to_bits` on matrix cells.
//!
//! [`ServerResult`]: crate::ServerResult

use crate::config::RuntimeConfig;
use crate::crc::Crc32;
use crate::engine::EngineSnapshot;
use crate::record::SensorInfo;
use crate::transport::TelemetryBatch;
use cluster_sim::time::VirtualTime;
use parking_lot::Mutex;

/// Immutable run metadata, written once when the log is created — enough
/// to rebuild an empty engine from nothing.
#[derive(Clone)]
pub(crate) struct WalHeader {
    pub(crate) ranks: usize,
    pub(crate) sensors: Vec<SensorInfo>,
    pub(crate) config: RuntimeConfig,
}

/// One log record.
pub(crate) enum WalEntry {
    /// A batch arrival, logged before it was processed.
    Batch {
        batch: TelemetryBatch,
        arrival: VirtualTime,
    },
    /// A full engine checkpoint taken at a detect-pass boundary: recovery
    /// restores the latest one and replays only the batches after it.
    Snapshot(Box<EngineSnapshot>),
}

/// One framed log record: the entry plus the integrity metadata a real
/// on-disk log would carry per frame.
struct Frame {
    /// CRC-32 over the entry's wire-relevant fields, stamped at append.
    crc: u32,
    /// A torn write: the frame header landed but the record body did not.
    /// (Simulation stand-in for a crash mid-`write(2)`.)
    torn: bool,
    entry: WalEntry,
}

/// What recovery needs, cut at the first damaged frame.
pub(crate) struct RecoveryState {
    /// The latest intact snapshot, if any frame before the damage held one.
    pub(crate) snapshot: Option<Box<EngineSnapshot>>,
    /// The batch tail logged after that snapshot, in log order.
    pub(crate) tail: Vec<(TelemetryBatch, VirtualTime)>,
    /// Frames dropped because they (or an earlier frame) failed their
    /// CRC check or were torn. Zero on a clean log.
    pub(crate) dropped: usize,
}

/// The append-only log. Frame storage has its own lock (separate from the
/// engine's state lock) so standbys and recovery read it without touching
/// the engine.
pub struct WriteAheadLog {
    header: WalHeader,
    log: Mutex<Log>,
}

/// The frames plus running counts of each kind, kept in `append` — the
/// `wal_snapshot` trace event reads one per detection pass, which must not
/// be a walk over the whole log.
#[derive(Default)]
struct Log {
    frames: Vec<Frame>,
    batch_entries: usize,
    snapshot_entries: usize,
}

/// Frame checksum for one entry. For batches this covers the wire header,
/// the arrival instant and the payload's own CRC (so a bit-flip anywhere
/// in the stored record surfaces); snapshots fold their fingerprint.
fn entry_crc(entry: &WalEntry) -> u32 {
    let mut crc = Crc32::new();
    match entry {
        WalEntry::Batch { batch, arrival } => {
            crc.eat(&[0x01]);
            crc.eat(&(batch.rank as u64).to_le_bytes());
            crc.eat(&batch.seq.to_le_bytes());
            crc.eat(&batch.sent_at.as_nanos().to_le_bytes());
            crc.eat(&arrival.as_nanos().to_le_bytes());
            crc.eat(&(batch.records.len() as u64).to_le_bytes());
            crc.eat(&batch.crc.to_le_bytes());
            if let Some(n) = &batch.death_notice {
                crc.eat(&(n.rank as u64).to_le_bytes());
                crc.eat(&n.at.as_nanos().to_le_bytes());
            }
        }
        WalEntry::Snapshot(s) => {
            crc.eat(&[0x02]);
            crc.eat(&s.fingerprint().to_le_bytes());
        }
    }
    crc.finish()
}

impl WriteAheadLog {
    pub(crate) fn new(header: WalHeader) -> Self {
        WriteAheadLog {
            header,
            log: Mutex::new(Log::default()),
        }
    }

    pub(crate) fn header(&self) -> &WalHeader {
        &self.header
    }

    fn append(&self, entry: WalEntry) {
        let crc = entry_crc(&entry);
        let mut log = self.log.lock();
        match entry {
            WalEntry::Batch { .. } => log.batch_entries += 1,
            WalEntry::Snapshot(_) => log.snapshot_entries += 1,
        }
        log.frames.push(Frame {
            crc,
            torn: false,
            entry,
        });
    }

    pub(crate) fn append_batch(&self, batch: TelemetryBatch, arrival: VirtualTime) {
        self.append(WalEntry::Batch { batch, arrival });
    }

    pub(crate) fn append_snapshot(&self, snapshot: EngineSnapshot) {
        self.append(WalEntry::Snapshot(Box::new(snapshot)));
    }

    /// Frames whose CRC still matches and that are not torn, counted from
    /// the front — replay must stop at the first failure, even if later
    /// frames happen to be intact (log order would be violated).
    fn valid_prefix(frames: &[Frame]) -> usize {
        frames
            .iter()
            .position(|f| f.torn || entry_crc(&f.entry) != f.crc)
            .unwrap_or(frames.len())
    }

    /// Total frames appended so far (batches + snapshots), including any
    /// damaged tail. Standby replicas use this as their replay cursor.
    pub fn frames(&self) -> usize {
        self.log.lock().frames.len()
    }

    /// Batches logged so far (all of them, snapshots not included).
    pub fn batch_entries(&self) -> usize {
        self.log.lock().batch_entries
    }

    /// Snapshots logged so far.
    pub fn snapshot_entries(&self) -> usize {
        self.log.lock().snapshot_entries
    }

    /// What recovery needs: the latest snapshot in the intact prefix and
    /// the batch tail logged after it, in log order, plus how many frames
    /// were dropped at the first failed CRC check.
    pub(crate) fn recovery_state(&self) -> RecoveryState {
        let frames = &self.log.lock().frames;
        let valid = Self::valid_prefix(frames);
        let intact = &frames[..valid];
        let cut = intact
            .iter()
            .rposition(|f| matches!(f.entry, WalEntry::Snapshot(_)));
        let mut snapshot = None;
        let mut tail = Vec::new();
        for (i, frame) in intact.iter().enumerate() {
            match &frame.entry {
                WalEntry::Snapshot(s) if Some(i) == cut => snapshot = Some(s.clone()),
                WalEntry::Snapshot(_) => {}
                WalEntry::Batch { batch, arrival } => {
                    if cut.is_none_or(|c| i > c) {
                        tail.push((batch.clone(), *arrival));
                    }
                }
            }
        }
        RecoveryState {
            snapshot,
            tail,
            dropped: frames.len() - valid,
        }
    }

    /// Batches framed at or after frame index `from`, cut at the first
    /// damaged frame — the incremental feed a standby replica applies to
    /// stay caught up. Returns the batches and the new cursor (one past
    /// the last frame consumed).
    pub(crate) fn batches_since(&self, from: usize) -> (Vec<(TelemetryBatch, VirtualTime)>, usize) {
        let frames = &self.log.lock().frames;
        let valid = Self::valid_prefix(frames);
        let upto = valid.max(from.min(frames.len()));
        let batches = frames[from.min(upto)..upto]
            .iter()
            .filter_map(|f| match &f.entry {
                WalEntry::Batch { batch, arrival } => Some((batch.clone(), *arrival)),
                WalEntry::Snapshot(_) => None,
            })
            .collect();
        (batches, upto)
    }

    /// Every batch in the intact prefix, in log order — the from-scratch
    /// replay oracle the recovery-equivalence tests use.
    pub fn all_batches(&self) -> Vec<(TelemetryBatch, VirtualTime)> {
        let frames = &self.log.lock().frames;
        let valid = Self::valid_prefix(frames);
        frames[..valid]
            .iter()
            .filter_map(|f| match &f.entry {
                WalEntry::Batch { batch, arrival } => Some((batch.clone(), *arrival)),
                WalEntry::Snapshot(_) => None,
            })
            .collect()
    }

    /// Damage injector: flip a bit in the payload of the last batch frame
    /// without restamping the frame CRC — a corrupted-at-rest tail.
    #[doc(hidden)]
    pub fn corrupt_tail_record(&self) {
        let mut log = self.log.lock();
        let frame = log
            .frames
            .iter_mut()
            .rev()
            .find(|f| matches!(f.entry, WalEntry::Batch { .. }))
            .expect("no batch frame to corrupt");
        if let WalEntry::Batch { batch, .. } = &mut frame.entry {
            batch.crc ^= 1;
        }
    }

    /// Damage injector: mark the last frame torn, as if the process died
    /// mid-write and only the frame header reached the log.
    #[doc(hidden)]
    pub fn truncate_mid_record(&self) {
        let mut log = self.log.lock();
        log.frames.last_mut().expect("no frame to tear").torn = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynrules::Bucket;
    use crate::record::{SensorKind, SliceRecord};
    use vsensor_lang::SensorId;

    fn header() -> WalHeader {
        WalHeader {
            ranks: 1,
            sensors: vec![SensorInfo {
                sensor: SensorId(0),
                kind: SensorKind::Computation,
                process_invariant: true,
                location: "test:0".into(),
            }],
            config: RuntimeConfig::free_probes(),
        }
    }

    fn batch(seq: u64) -> TelemetryBatch {
        TelemetryBatch::new(
            0,
            seq,
            VirtualTime::from_micros(seq),
            vec![SliceRecord {
                sensor: SensorId(0),
                slice: seq,
                avg: cluster_sim::time::Duration::from_micros(10),
                count: 1,
                bucket: Bucket(0),
            }],
        )
    }

    #[test]
    fn tail_starts_after_the_last_snapshot() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        wal.append_batch(batch(0), t);
        wal.append_batch(batch(1), t);
        // No snapshot yet: the tail is the whole log.
        let rec = wal.recovery_state();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.tail.len(), 2);
        assert_eq!(rec.dropped, 0);
        // A snapshot cuts the tail; later batches accumulate after it.
        let engine = crate::AnalysisServer::new(
            1,
            wal.header().sensors.clone(),
            wal.header().config.clone(),
        );
        wal.append_snapshot(engine.snapshot_for_tests());
        wal.append_batch(batch(2), t);
        let rec = wal.recovery_state();
        assert!(rec.snapshot.is_some());
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].0.seq, 2);
        assert_eq!(wal.batch_entries(), 3);
        assert_eq!(wal.snapshot_entries(), 1);
        assert_eq!(wal.all_batches().len(), 3);
        assert_eq!(wal.frames(), 4);
    }

    #[test]
    fn bit_flipped_tail_stops_replay_and_reports_drops() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        for seq in 0..4 {
            wal.append_batch(batch(seq), t);
        }
        wal.corrupt_tail_record();
        let rec = wal.recovery_state();
        // The first three frames survive; the damaged fourth is dropped.
        assert_eq!(rec.tail.len(), 3);
        assert_eq!(rec.tail.last().unwrap().0.seq, 2);
        assert_eq!(rec.dropped, 1);
        assert_eq!(wal.all_batches().len(), 3);
    }

    #[test]
    fn torn_mid_record_frame_truncates_everything_after_it() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        wal.append_batch(batch(0), t);
        wal.append_batch(batch(1), t);
        wal.truncate_mid_record();
        // Appends after the tear land, but replay must not skip over the
        // damaged frame — log order would be violated.
        wal.append_batch(batch(2), t);
        let rec = wal.recovery_state();
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].0.seq, 0);
        assert_eq!(rec.dropped, 2);
    }

    #[test]
    fn corrupt_snapshot_frame_falls_back_to_batch_replay() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        wal.append_batch(batch(0), t);
        let engine = crate::AnalysisServer::new(
            1,
            wal.header().sensors.clone(),
            wal.header().config.clone(),
        );
        wal.append_snapshot(engine.snapshot_for_tests());
        wal.truncate_mid_record();
        let rec = wal.recovery_state();
        // The snapshot frame is damaged: recovery replays from scratch.
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.dropped, 1);
    }

    #[test]
    fn batches_since_respects_cursor_and_damage() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        wal.append_batch(batch(0), t);
        wal.append_batch(batch(1), t);
        let (first, cursor) = wal.batches_since(0);
        assert_eq!(first.len(), 2);
        assert_eq!(cursor, 2);
        wal.append_batch(batch(2), t);
        let (next, cursor) = wal.batches_since(cursor);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].0.seq, 2);
        assert_eq!(cursor, 3);
        // A damaged tail is never handed to a replica.
        wal.append_batch(batch(3), t);
        wal.corrupt_tail_record();
        let (rest, cursor2) = wal.batches_since(cursor);
        assert!(rest.is_empty());
        assert_eq!(cursor2, cursor);
    }
}
