//! Write-ahead log for the crash-recoverable analysis engine.
//!
//! The engine is an in-memory simulation, so durability is simulated too:
//! the "log" is an in-memory sequence of CRC-framed entries, but the
//! discipline is the real one — every arriving batch is appended *before*
//! it mutates engine state, under the engine's one state lock (log order ≡
//! processing order), and each detection pass appends a full
//! [`EngineSnapshot`], a clone of that state.
//!
//! **Shape.** The log is its newest checkpoint known to have landed whole,
//! then everything appended after it. An append *behind* an intact
//! checkpoint proves that the checkpoint's own write completed, so that
//! append drops every frame in front of it; a checkpoint torn mid-write
//! proves nothing, and the previous checkpoint and its tail stay to fall
//! back on. Memory is bounded by two detection intervals, not by the
//! tenant's lifetime; [`WriteAheadLog::frames`] and the per-kind counts
//! still count every frame ever appended, so cursors are stable.
//!
//! **Reading.** There is one reader, `WriteAheadLog::read_from`, and one
//! rule: *a reader verifies every frame it consumes; frames it has already
//! consumed, or that an intact checkpoint covers, are not its concern.* It
//! seeds from the newest intact checkpoint the reader has not passed (a
//! fresh reader, and one a truncation overtook, get the retained one), else
//! starts at the reader's cursor; from there each frame's CRC-32, stamped
//! at append, is recomputed and the read stops at the first torn or
//! mismatching frame — a damaged batch never reaches an engine, and later
//! intact frames are not skipped to (log order). Damage *under* an intact
//! checkpoint therefore costs nothing: a standby stuck behind a bit-flipped
//! batch re-seeds from the next checkpoint (it used to stay stuck for good).
//!
//! [`crate::AnalysisServer::recover`] is that read from cursor 0 into an
//! empty engine built from the header. Replay re-executes the logged ingest
//! order, so the recovered engine's [`ServerResult`] is **bitwise
//! identical** to the crash-free run's — the invariant the `fail_stop`
//! suite asserts down to `f64::to_bits` on matrix cells.
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

/// What one [`WriteAheadLog::read_from`] hands its reader.
pub(crate) struct Replay {
    /// The checkpoint to restore first, when the read seeded from one.
    pub(crate) snapshot: Option<EngineSnapshot>,
    /// The batches logged after it (or after the cursor), in log order.
    pub(crate) tail: Vec<(TelemetryBatch, VirtualTime)>,
    /// Where the next read starts; short of `frames()` only at damage.
    pub(crate) cursor: usize,
}

/// The log. Frame storage has its own lock (separate from the engine's
/// state lock) so standbys and recovery read it without touching the engine.
pub struct WriteAheadLog {
    header: WalHeader,
    log: Mutex<Log>,
}

/// The retained frames plus running counts, kept in `append` (the
/// `wal_snapshot` trace event reads one per detection pass).
#[derive(Default)]
struct Log {
    /// Frames dropped from the front: `frames[i]` was append `base + i`.
    base: usize,
    frames: Vec<Frame>,
    batch_entries: usize,
    snapshot_entries: usize,
}

/// Frame checksum for one entry. For batches this covers the wire header,
/// the arrival instant and the payload's own CRC (so a bit-flip anywhere
/// in the stored record surfaces); snapshots fold their fingerprint.
pub(crate) fn entry_crc(entry: &WalEntry) -> u32 {
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

/// The per-frame check: the body landed and still matches its stamp.
fn intact(frame: &Frame) -> bool {
    !frame.torn && entry_crc(&frame.entry) == frame.crc
}

/// The checkpoint `frame` holds, if it holds one and passes the check.
fn checkpoint(frame: &Frame) -> Option<&EngineSnapshot> {
    match &frame.entry {
        WalEntry::Snapshot(snapshot) if intact(frame) => Some(snapshot),
        _ => None,
    }
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
        // Appending behind an intact checkpoint: its write completed, so
        // it covers every frame in front of it.
        if log.frames.last().and_then(checkpoint).is_some() {
            let covered = log.frames.len() - 1;
            log.frames.drain(..covered);
            log.base += covered;
        }
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

    /// Frames ever appended (batches + snapshots), dropped and damaged
    /// ones included — the scale read cursors are on.
    pub fn frames(&self) -> usize {
        let log = self.log.lock();
        log.base + log.frames.len()
    }

    /// Batches logged so far (all of them, snapshots not included).
    pub fn batch_entries(&self) -> usize {
        self.log.lock().batch_entries
    }

    /// Snapshots logged so far.
    pub fn snapshot_entries(&self) -> usize {
        self.log.lock().snapshot_entries
    }

    /// The one read. Seed from the newest intact checkpoint the reader has
    /// not passed, else start at `cursor`; then hand over every batch up
    /// to the first frame that fails [`intact`].
    pub(crate) fn read_from(&self, cursor: usize) -> Replay {
        let log = self.log.lock();
        let frames = &log.frames;
        let unread = cursor.saturating_sub(log.base).min(frames.len());
        let seed = (unread..frames.len())
            .rev()
            .find_map(|i| Some((i + 1, checkpoint(&frames[i])?)));
        let start = seed.map_or(unread, |(after, _)| after);
        let mut tail = Vec::new();
        let mut end = start;
        for frame in frames[start..].iter().take_while(|f| intact(f)) {
            if let WalEntry::Batch { batch, arrival } = &frame.entry {
                tail.push((batch.clone(), *arrival));
            }
            end += 1;
        }
        Replay {
            snapshot: seed.map(|(_, snapshot)| snapshot.clone()),
            tail,
            cursor: log.base + end,
        }
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
            config: RuntimeConfig::default(),
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

    impl WriteAheadLog {
        /// Frames currently held in memory.
        fn retained(&self) -> usize {
            self.log.lock().frames.len()
        }

        /// Damage injector: flip a bit in the payload of the last batch frame
        /// without restamping the frame CRC — a corrupted-at-rest tail.
        fn corrupt_tail_record(&self) {
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
        fn truncate_mid_record(&self) {
            let mut log = self.log.lock();
            log.frames.last_mut().expect("no frame to tear").torn = true;
        }
    }

    fn engine(wal: &WriteAheadLog) -> crate::AnalysisServer {
        crate::AnalysisServer::empty_for(wal).unwrap()
    }

    #[test]
    fn tail_starts_after_the_last_snapshot() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        wal.append_batch(batch(0), t);
        wal.append_batch(batch(1), t);
        // No snapshot yet: the tail is the whole log.
        let rec = wal.read_from(0);
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.tail.len(), 2);
        assert_eq!(wal.frames() - rec.cursor, 0);
        // A snapshot cuts the tail; later batches accumulate after it.
        wal.append_snapshot(engine(&wal).snapshot_for_tests());
        wal.append_batch(batch(2), t);
        let rec = wal.read_from(0);
        assert!(rec.snapshot.is_some());
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].0.seq, 2);
        assert_eq!(wal.batch_entries(), 3);
        assert_eq!(wal.snapshot_entries(), 1);
        assert_eq!(wal.frames(), 4);
        // The append behind the checkpoint dropped what it covers.
        assert_eq!(wal.retained(), 2);
    }

    #[test]
    fn bit_flipped_tail_stops_replay_and_reports_drops() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        for seq in 0..4 {
            wal.append_batch(batch(seq), t);
        }
        wal.corrupt_tail_record();
        let rec = wal.read_from(0);
        // The first three frames survive; the damaged fourth is dropped.
        assert_eq!(rec.tail.len(), 3);
        assert_eq!(rec.tail.last().unwrap().0.seq, 2);
        assert_eq!(wal.frames() - rec.cursor, 1);
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
        let rec = wal.read_from(0);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].0.seq, 0);
        assert_eq!(wal.frames() - rec.cursor, 2);
    }

    #[test]
    fn corrupt_snapshot_frame_falls_back_to_batch_replay() {
        // The same tear on a fresh log and on one that truncated once.
        for truncated in [false, true] {
            let wal = WriteAheadLog::new(header());
            let t = VirtualTime::from_micros(1);
            // A checkpoint that has absorbed batch 0, so that it is
            // distinguishable from an empty engine.
            let absorbed = engine(&wal);
            absorbed.ingest(&batch(0), t).unwrap();
            let retained = absorbed.snapshot_for_tests().fingerprint();
            if truncated {
                wal.append_batch(batch(0), t);
                wal.append_snapshot(absorbed.snapshot_for_tests());
            }
            wal.append_batch(batch(1), t); // behind a checkpoint, it drops batch 0
            assert_eq!(wal.retained(), if truncated { 2 } else { 1 });
            wal.append_snapshot(engine(&wal).snapshot_for_tests());
            wal.truncate_mid_record();
            // The newest checkpoint is damaged: a fresh log replays from
            // scratch, a truncated one from the retained older checkpoint
            // and the batches between — never from an empty engine.
            let rec = wal.read_from(0);
            let seed = rec.snapshot.as_ref().map(EngineSnapshot::fingerprint);
            assert_eq!(seed, truncated.then_some(retained));
            assert_eq!(rec.tail.len(), 1);
            assert_eq!(rec.tail[0].0.seq, 1);
            assert_eq!(wal.frames() - rec.cursor, 1);
            // An append behind the torn checkpoint proves nothing: it drops
            // nothing, and stays out of reach (log order).
            let held = wal.retained();
            wal.append_batch(batch(2), t);
            assert_eq!(wal.retained(), held + 1);
            assert_eq!(wal.read_from(0).cursor, rec.cursor);
        }
    }

    #[test]
    fn read_from_respects_cursor_and_damage() {
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        wal.append_batch(batch(0), t);
        wal.append_batch(batch(1), t);
        let first = wal.read_from(0);
        assert_eq!(first.tail.len(), 2);
        assert_eq!(first.cursor, 2);
        wal.append_batch(batch(2), t);
        let next = wal.read_from(first.cursor);
        assert_eq!(next.tail.len(), 1);
        assert_eq!(next.tail[0].0.seq, 2);
        assert_eq!(next.cursor, 3);
        // A damaged tail is never handed to a replica.
        wal.append_batch(batch(3), t);
        wal.corrupt_tail_record();
        let rest = wal.read_from(next.cursor);
        assert!(rest.snapshot.is_none() && rest.tail.is_empty());
        assert_eq!(rest.cursor, next.cursor);
    }

    #[test]
    fn retained_frames_are_bounded_by_two_intervals() {
        const INTERVAL: usize = 7;
        let wal = WriteAheadLog::new(header());
        let t = VirtualTime::from_micros(1);
        let snap = engine(&wal).snapshot_for_tests();
        let mut high_water = Vec::new();
        for pass in 0..50 {
            let mut peak = 0;
            for i in 0..INTERVAL {
                wal.append_batch(batch((pass * INTERVAL + i) as u64), t);
                peak = peak.max(wal.retained());
            }
            wal.append_snapshot(snap.clone());
            high_water.push(peak.max(wal.retained()));
        }
        assert!(high_water.iter().all(|&n| n <= 2 * INTERVAL + 2));
        assert_eq!(high_water[2], high_water[49], "does not grow with passes");
        // The counters still cover everything ever appended.
        assert_eq!(wal.frames(), 50 * (INTERVAL + 1));
        assert_eq!(wal.batch_entries(), 50 * INTERVAL);
        assert_eq!(wal.snapshot_entries(), 50);
        // A fresh reader is seeded from the newest checkpoint.
        let rec = wal.read_from(0);
        assert!(rec.snapshot.is_some() && rec.tail.is_empty());
        assert_eq!(rec.cursor, wal.frames());
    }

    /// A durable single-rank server fed one batch per millisecond, and a
    /// standby replica of it.
    struct Pair {
        live: crate::AnalysisServer,
        wal: std::sync::Arc<WriteAheadLog>,
        standby: crate::AnalysisServer,
        cursor: usize,
        next: u64,
    }

    impl Pair {
        fn new() -> Pair {
            let h = header();
            let (live, wal) =
                crate::AnalysisServer::try_new_durable(h.ranks, h.sensors, h.config).unwrap();
            let (standby, cursor) = crate::AnalysisServer::replay_from(&wal).unwrap();
            Pair {
                live,
                wal,
                standby,
                cursor,
                next: 0,
            }
        }

        /// The live server takes its next batch.
        fn ingest_one(&mut self) {
            let t = VirtualTime::from_millis(self.next);
            let b = TelemetryBatch::new(0, self.next, t, batch(self.next).records);
            self.live.ingest(&b, t).unwrap();
            self.next += 1;
        }

        /// Ingest until `passes` more checkpoints are logged and one more
        /// batch landed behind the last (so the log truncated to it).
        fn run_passes(&mut self, passes: usize) {
            let target = self.wal.snapshot_entries() + passes;
            let mut behind = false;
            while !behind {
                behind = self.wal.snapshot_entries() == target;
                self.ingest_one();
            }
        }

        fn catch_up(&mut self) {
            self.cursor = self.standby.catch_up(&self.wal, self.cursor);
        }

        fn in_step(&self) -> bool {
            self.standby.snapshot_for_tests().fingerprint()
                == self.live.snapshot_for_tests().fingerprint()
        }
    }

    #[test]
    fn standby_overtaken_by_two_truncations_catches_up() {
        let mut pair = Pair::new();
        pair.run_passes(1);
        pair.catch_up();
        assert!(pair.in_step());
        let seen = pair.cursor;
        pair.run_passes(2);
        assert!(
            pair.wal.frames() - pair.wal.retained() > seen,
            "the standby's next frame must be gone from the log"
        );
        pair.catch_up();
        assert_eq!(pair.cursor, pair.wal.frames());
        assert!(pair.in_step());
    }

    #[test]
    fn standby_behind_a_bit_flipped_batch_reseeds_from_the_next_checkpoint() {
        let mut pair = Pair::new();
        pair.run_passes(1);
        pair.wal.corrupt_tail_record();
        pair.catch_up();
        let stuck = pair.cursor;
        assert_eq!(pair.wal.frames() - stuck, 1, "stops at the damaged frame");
        assert!(!pair.in_step());
        // More frames do not help: log order forbids skipping the damage...
        pair.ingest_one();
        pair.catch_up();
        assert_eq!(pair.cursor, stuck);
        // ...until a checkpoint taken by the live engine covers it.
        pair.run_passes(1);
        pair.catch_up();
        assert_eq!(pair.cursor, pair.wal.frames());
        assert!(pair.in_step());
    }
}
