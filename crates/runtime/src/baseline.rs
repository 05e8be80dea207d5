//! Cross-run baseline store — per-(sensor, bucket) performance history.
//!
//! The engine's within-run detector answers "is rank r slower than its
//! peers right now". This store answers the orthogonal question the
//! ROADMAP's Fig-1 scenario poses: "is *this submission* slower than the
//! last N submissions of the same program". Each finished run contributes
//! one [`GroupSummary`] per (sensor, bucket) group — the mean normalized
//! performance across ranks and slices — keyed by a caller-chosen
//! [`RunId`]. At close time the engine asks the store to
//! [`analyze`](BaselineStore::analyze) the new run against history:
//!
//! - a significant, practically large shift ([`stats::detect_shift`])
//!   whose worst single adjacent drop carries most of the total shift is a
//!   **step** — a new baseline regime, localized to the run where it
//!   began;
//! - a significant shift without such a dominating adjacent drop is
//!   **drift** — gradual degradation (thermal throttling, aging kernels);
//! - no significant shift, but the current run a robust-z outlier against
//!   the history median, is **transient** — one noisy submission, not a
//!   regime change.
//!
//! Only a worsening step becomes an [`AlertKind::CrossRunRegression`]
//! alert; drift and transients are report-level findings.
//!
//! The store also feeds thresholds back *into* the within-run detector:
//! [`adaptive_threshold`](BaselineStore::adaptive_threshold) derives a
//! per-group cut from the history median minus three scaled MADs, so a
//! group that historically sits at 0.95 normalized performance is held to
//! a much tighter standard than the global `variance_threshold` knob.
//!
//! On disk the store reuses the WAL's framing discipline: a magic header,
//! then `[len u32 LE][crc u32 LE][payload]` records (CRC-32/IEEE over the
//! payload, the crate's one `Crc32` folder), loaded with
//! valid-prefix semantics — a torn or corrupted tail drops the damaged
//! record and everything after it, never the healthy prefix.
//!
//! [`AlertKind::CrossRunRegression`]: crate::engine::AlertKind::CrossRunRegression

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::crc::Crc32;
use crate::dynrules::Bucket;
use crate::stats::{self, ShiftPolicy};
use vsensor_lang::SensorId;

/// Identifies one submission (one engine run) in the history. Callers
/// assign these; re-recording an existing id replaces the prior entry, so
/// a crash-recovered server that closes the same logical run twice does
/// not double-count it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub u64);

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run#{}", self.0)
    }
}

/// One run's contribution for one (sensor, bucket) group: the mean
/// normalized performance (1.0 = as fast as the fastest record ever seen
/// for the group, 0.5 = half that speed) and how many matrix cells the
/// mean folds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupSummary {
    pub sensor: SensorId,
    pub bucket: Bucket,
    /// Mean normalized performance across ranks × slices, in (0, 1].
    pub mean_perf: f64,
    /// Matrix cells folded into the mean.
    pub records: u64,
}

/// How the history of a group changed, as classified by the change-point
/// scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RegimeChange {
    /// A new baseline regime beginning at `at_run` (index into the
    /// analyzed series, i.e. the position in run-id order): one dominant
    /// drop between adjacent runs carries the shift.
    Step { at_run: usize },
    /// A significant shift spread across runs with no dominant single
    /// drop — gradual degradation.
    Drift,
    /// No regime shift, but the newest run is a robust-z outlier against
    /// the history median — one noisy submission.
    Transient,
}

impl fmt::Display for RegimeChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegimeChange::Step { at_run } => write!(f, "step at run index {at_run}"),
            RegimeChange::Drift => write!(f, "drift"),
            RegimeChange::Transient => write!(f, "transient"),
        }
    }
}

/// One cross-run verdict for one (sensor, bucket) group, produced when a
/// run closes against an attached baseline store.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossRunFinding {
    pub sensor: SensorId,
    pub bucket: Bucket,
    pub change: RegimeChange,
    /// Mean normalized performance before the shift (for `Transient`, the
    /// history median).
    pub before: f64,
    /// Mean after the shift (for `Transient`, the current run's mean).
    pub after: f64,
    /// Bonferroni-adjusted p-value of the shift; for `Transient` the
    /// robust z-score of the current run instead.
    pub score: f64,
    /// Runs in the analyzed series (current run included).
    pub runs: usize,
}

impl CrossRunFinding {
    /// True when the change moves performance the bad way (down).
    pub fn is_worsening(&self) -> bool {
        self.after < self.before
    }
}

impl fmt::Display for CrossRunFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sensor {} bucket {}: {} — perf {:.3} -> {:.3} over {} runs",
            self.sensor.0, self.bucket, self.change, self.before, self.after, self.runs
        )
    }
}

/// All group summaries for one recorded run.
#[derive(Clone, Debug, PartialEq)]
struct RunRecord {
    id: RunId,
    groups: Vec<GroupSummary>,
}

/// Persistent per-(sensor, bucket) history of run summaries, plus the
/// statistics that turn that history into verdicts.
#[derive(Clone, Debug)]
pub struct BaselineStore {
    /// Runs in recording order, deduplicated by id (re-record replaces).
    runs: Vec<RunRecord>,
    /// Runs a group needs before adaptive thresholds / change-point
    /// verdicts replace fixed-threshold behavior.
    min_history: usize,
}

impl Default for BaselineStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Absolute dispersion floor used wherever a robust spread estimate feeds
/// a cut-off: a history that happens to be near-constant must not produce
/// a zero-width band that flags every future fluctuation.
const MIN_DISPERSION: f64 = 0.02;

/// Robust-z multiple for the transient-outlier test and the adaptive
/// threshold band.
const Z_CUT: f64 = 3.0;

impl BaselineStore {
    pub fn new() -> Self {
        BaselineStore {
            runs: Vec::new(),
            min_history: 5,
        }
    }

    /// Runs of history a group must have before statistics replace fixed
    /// thresholds (default 5).
    pub fn min_history(&self) -> usize {
        self.min_history
    }

    /// Number of recorded runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Record (or replace — same id) one run's group summaries. Summaries
    /// are stored sorted by (sensor, bucket) so serialization and analysis
    /// are order-independent of the caller's fold.
    pub fn record_run(&mut self, id: RunId, mut groups: Vec<GroupSummary>) {
        groups.sort_by_key(|g| (g.sensor, g.bucket.0));
        self.runs.retain(|r| r.id != id);
        self.runs.push(RunRecord { id, groups });
    }

    /// The per-run mean-performance series for one group, in recording
    /// order, excluding `exclude` (the run being analyzed — it is passed
    /// separately so replay after recording cannot double-count it).
    fn series(&self, sensor: SensorId, bucket: Bucket, exclude: RunId) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.id != exclude)
            .filter_map(|r| {
                r.groups
                    .iter()
                    .find(|g| g.sensor == sensor && g.bucket == bucket)
                    .map(|g| g.mean_perf)
            })
            .collect()
    }

    /// All (sensor, bucket) groups seen across history.
    fn known_groups(&self) -> Vec<(SensorId, Bucket)> {
        let mut keys: Vec<(SensorId, Bucket)> = Vec::new();
        for r in &self.runs {
            for g in &r.groups {
                let key = (g.sensor, g.bucket);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        keys.sort_by_key(|&(s, b)| (s, b.0));
        keys
    }

    /// History-derived detection threshold for a group: the median of past
    /// run means minus a three-scaled-MAD band (floored at
    /// [`MIN_DISPERSION`]), clamped into [0.05, 0.99]. `None` until the
    /// group has [`min_history`](Self::min_history) runs — callers fall
    /// back to the fixed configuration knob.
    pub fn adaptive_threshold(&self, sensor: SensorId, bucket: Bucket) -> Option<f64> {
        // Exclude nothing real: RunId(u64::MAX) is reserved as "no run".
        let series = self.series(sensor, bucket, RunId(u64::MAX));
        if series.len() < self.min_history {
            return None;
        }
        let med = stats::median(&series)?;
        let spread = stats::scaled_mad(&series)?.max(MIN_DISPERSION);
        Some((med - Z_CUT * spread).clamp(0.05, 0.99))
    }

    /// Adaptive thresholds for every group with enough history.
    pub fn adaptive_thresholds(&self) -> BTreeMap<(SensorId, Bucket), f64> {
        self.known_groups()
            .into_iter()
            .filter_map(|(s, b)| self.adaptive_threshold(s, b).map(|t| ((s, b), t)))
            .collect()
    }

    /// Classify the run `current` (its summaries in `groups`) against the
    /// recorded history, group by group. `current` itself is excluded from
    /// the history side even if already recorded.
    pub fn analyze(&self, current: RunId, groups: &[GroupSummary]) -> Vec<CrossRunFinding> {
        let mut findings = Vec::new();
        let mut sorted: Vec<&GroupSummary> = groups.iter().collect();
        sorted.sort_by_key(|g| (g.sensor, g.bucket.0));
        for g in sorted {
            let mut series = self.series(g.sensor, g.bucket, current);
            if series.len() + 1 < self.min_history {
                continue; // shallow history: fixed thresholds only
            }
            series.push(g.mean_perf);
            if let Some(cp) = stats::detect_shift(&series, &ShiftPolicy::default()) {
                // Step vs drift: does one adjacent worsening drop carry at
                // least half of the total shift?
                let total = cp.before_mean - cp.after_mean;
                let max_adjacent_drop = series
                    .windows(2)
                    .map(|w| w[0] - w[1])
                    .fold(f64::NEG_INFINITY, f64::max);
                let is_step = total <= 0.0 || max_adjacent_drop >= 0.5 * total;
                findings.push(CrossRunFinding {
                    sensor: g.sensor,
                    bucket: g.bucket,
                    change: if is_step {
                        RegimeChange::Step { at_run: cp.index }
                    } else {
                        RegimeChange::Drift
                    },
                    before: cp.before_mean,
                    after: cp.after_mean,
                    score: cp.p,
                    runs: series.len(),
                });
                continue;
            }
            // No regime shift: is the newest run itself an outlier?
            let history = &series[..series.len() - 1];
            let (Some(med), Some(smad)) = (stats::median(history), stats::scaled_mad(history))
            else {
                continue;
            };
            let band = (Z_CUT * smad).max(MIN_DISPERSION);
            if (g.mean_perf - med).abs() > band {
                findings.push(CrossRunFinding {
                    sensor: g.sensor,
                    bucket: g.bucket,
                    change: RegimeChange::Transient,
                    before: med,
                    after: g.mean_perf,
                    score: (g.mean_perf - med).abs() / smad.max(MIN_DISPERSION / Z_CUT),
                    runs: series.len(),
                });
            }
        }
        findings
    }

    // ---- serialization ---------------------------------------------------

    /// Serialize to the framed byte format (magic + CRC'd records).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        for run in &self.runs {
            let payload = encode_run(run);
            let mut crc = Crc32::new();
            crc.eat(&payload);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc.finish().to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Deserialize with valid-prefix semantics: a bad magic yields an
    /// empty store (fresh file), a torn or CRC-failed record drops itself
    /// and everything after it.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut store = BaselineStore::new();
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return store;
        }
        let mut rest = &bytes[MAGIC.len()..];
        // Each `None` is a torn tail: keep the healthy prefix only.
        while let (Some(len), Some(stored_crc)) = (read_le(&mut rest), read_le(&mut rest)) {
            let Some((payload, next)) = rest.split_at_checked(u32::from_le_bytes(len) as usize)
            else {
                break;
            };
            let mut crc = Crc32::new();
            crc.eat(payload);
            if crc.finish() != u32::from_le_bytes(stored_crc) {
                break; // corrupted record: keep the healthy prefix only
            }
            let Some(run) = decode_run(payload) else {
                break;
            };
            store.record_run(run.id, run.groups);
            rest = next;
        }
        store
    }

    /// Load from a file; a missing file is an empty store.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Self::from_bytes(&bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(e),
        }
    }

    /// Persist atomically (write-then-rename within the target directory).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }
}

const MAGIC: &[u8; 8] = b"VSBASE01";

fn encode_run(run: &RunRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&run.id.0.to_le_bytes());
    buf.extend_from_slice(&(run.groups.len() as u32).to_le_bytes());
    for g in &run.groups {
        buf.extend_from_slice(&g.sensor.0.to_le_bytes());
        buf.extend_from_slice(&g.bucket.0.to_le_bytes());
        buf.extend_from_slice(&g.mean_perf.to_bits().to_le_bytes());
        buf.extend_from_slice(&g.records.to_le_bytes());
    }
    buf
}

/// Split the next `N` bytes off the front of `bytes` — the one read of the
/// baseline format; `None` on short input, which the format treats as a
/// torn record.
fn read_le<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*head)
}

fn decode_run(mut payload: &[u8]) -> Option<RunRecord> {
    let id = RunId(u64::from_le_bytes(read_le(&mut payload)?));
    let count = u32::from_le_bytes(read_le(&mut payload)?) as usize;
    let mut groups = Vec::with_capacity(count.min(payload.len() / 24));
    for _ in 0..count {
        groups.push(GroupSummary {
            sensor: SensorId(u32::from_le_bytes(read_le(&mut payload)?)),
            bucket: Bucket(u32::from_le_bytes(read_le(&mut payload)?)),
            mean_perf: f64::from_le_bytes(read_le(&mut payload)?),
            records: u64::from_le_bytes(read_le(&mut payload)?),
        });
    }
    payload.is_empty().then_some(RunRecord { id, groups })
}

/// A baseline store shared between a client, an engine, and (eventually)
/// multiple sequential runs: `Arc<Mutex<BaselineStore>>` without exposing
/// the lock type in public signatures.
#[derive(Clone, Default)]
pub struct SharedBaseline(Arc<Mutex<BaselineStore>>);

impl SharedBaseline {
    pub fn new(store: BaselineStore) -> Self {
        SharedBaseline(Arc::new(Mutex::new(store)))
    }

    /// Run `f` with the store locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut BaselineStore) -> R) -> R {
        f(&mut self.0.lock())
    }
}

impl fmt::Debug for SharedBaseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let runs = self.0.lock().run_count();
        f.debug_struct("SharedBaseline")
            .field("runs", &runs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(sensor: u32, perf: f64) -> GroupSummary {
        GroupSummary {
            sensor: SensorId(sensor),
            bucket: Bucket(0),
            mean_perf: perf,
            records: 64,
        }
    }

    /// Deterministic ±1% wobble, distinct per run index.
    fn wobble(i: u64) -> f64 {
        let h = i
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add(0x5bd1_e995);
        1.0 + 0.02 * ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
    }

    fn store_with_runs(perfs: &[f64]) -> BaselineStore {
        let mut store = BaselineStore::new();
        for (i, &p) in perfs.iter().enumerate() {
            store.record_run(RunId(i as u64), vec![group(7, p)]);
        }
        store
    }

    #[test]
    fn record_run_replaces_same_id() {
        let mut store = BaselineStore::new();
        store.record_run(RunId(1), vec![group(7, 0.9)]);
        store.record_run(RunId(1), vec![group(7, 0.8)]);
        assert_eq!(store.run_count(), 1);
        assert_eq!(
            store.series(SensorId(7), Bucket(0), RunId(u64::MAX)),
            vec![0.8]
        );
    }

    #[test]
    fn adaptive_threshold_needs_history_and_tracks_the_median() {
        let healthy: Vec<f64> = (0..4).map(|i| 0.95 * wobble(i)).collect();
        let store = store_with_runs(&healthy);
        assert_eq!(store.adaptive_threshold(SensorId(7), Bucket(0)), None);

        let healthy: Vec<f64> = (0..8).map(|i| 0.95 * wobble(i)).collect();
        let store = store_with_runs(&healthy);
        let t = store.adaptive_threshold(SensorId(7), Bucket(0)).unwrap();
        // Median ≈ 0.95, tight history ⇒ the MIN_DISPERSION floor applies:
        // threshold ≈ 0.95 − 3 × 0.02 = 0.89, far above the 0.5 default.
        assert!(t > 0.85 && t < 0.95, "threshold {t}");
    }

    #[test]
    fn analyze_flags_a_worsening_step_at_the_right_run() {
        // 8 healthy runs near 0.95, then the regime halves.
        let mut perfs: Vec<f64> = (0..8).map(|i| 0.95 * wobble(i)).collect();
        perfs.extend((8..11).map(|i| 0.475 * wobble(i)));
        let mut store = store_with_runs(&perfs[..10]);
        store.record_run(RunId(10), vec![group(7, perfs[10])]);
        let findings = store.analyze(RunId(10), &[group(7, perfs[10])]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.change, RegimeChange::Step { at_run: 8 });
        assert!(f.is_worsening());
        assert!(f.score < 0.01);
    }

    #[test]
    fn analyze_classifies_gradual_decline_as_drift() {
        // Decline spread evenly over 8 runs: total shift large, but no
        // single adjacent drop carries half of it.
        let perfs: Vec<f64> = (0..12).map(|i| 0.95 - 0.03 * i as f64).collect();
        let store = store_with_runs(&perfs);
        let last = *perfs.last().unwrap();
        let findings = store.analyze(RunId(11), &[group(7, last)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].change, RegimeChange::Drift);
    }

    #[test]
    fn analyze_classifies_single_outlier_as_transient() {
        let perfs: Vec<f64> = (0..9).map(|i| 0.95 * wobble(i)).collect();
        let store = store_with_runs(&perfs);
        // One bad submission, well outside 3 MAD but not a regime.
        let findings = store.analyze(RunId(100), &[group(7, 0.70)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].change, RegimeChange::Transient);
        assert!(findings[0].is_worsening());
    }

    #[test]
    fn analyze_is_quiet_on_healthy_history() {
        let perfs: Vec<f64> = (0..10).map(|i| 0.95 * wobble(i)).collect();
        let store = store_with_runs(&perfs);
        let findings = store.analyze(RunId(100), &[group(7, 0.95 * wobble(100))]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn analyze_is_quiet_below_min_history() {
        let store = store_with_runs(&[0.95, 0.94, 0.96]);
        // Even a 2× drop stays silent with only 3 prior runs.
        let findings = store.analyze(RunId(100), &[group(7, 0.45)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let mut store = BaselineStore::new();
        for i in 0..6u64 {
            store.record_run(
                RunId(i),
                vec![group(7, 0.95 * wobble(i)), group(9, 0.88 * wobble(i + 50))],
            );
        }
        let restored = BaselineStore::from_bytes(&store.to_bytes());
        assert_eq!(restored.run_count(), store.run_count());
        for sensor in [7u32, 9] {
            let a = store.series(SensorId(sensor), Bucket(0), RunId(u64::MAX));
            let b = restored.series(SensorId(sensor), Bucket(0), RunId(u64::MAX));
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn torn_tail_keeps_the_healthy_prefix() {
        let mut store = BaselineStore::new();
        for i in 0..4u64 {
            store.record_run(RunId(i), vec![group(7, 0.9)]);
        }
        let bytes = store.to_bytes();
        // Truncate mid-way through the last record.
        let truncated = &bytes[..bytes.len() - 5];
        let restored = BaselineStore::from_bytes(truncated);
        assert_eq!(restored.run_count(), 3);
    }

    #[test]
    fn corrupt_record_drops_itself_and_the_tail() {
        let mut store = BaselineStore::new();
        for i in 0..4u64 {
            store.record_run(RunId(i), vec![group(7, 0.9)]);
        }
        let mut bytes = store.to_bytes();
        // Flip a bit in the third record's payload. Records are fixed-size
        // here: 8-byte frame + 12-byte run header + one 24-byte group.
        let rec = 8 + 12 + 24;
        let third_payload = MAGIC.len() + 2 * rec + 8 + 4;
        bytes[third_payload] ^= 0x40;
        let restored = BaselineStore::from_bytes(&bytes);
        assert_eq!(restored.run_count(), 2);
    }

    #[test]
    fn a_group_count_the_payload_cannot_hold_is_a_torn_record() {
        // CRC-valid, but claims 2^32 − 1 groups over one group's bytes: the
        // decoder must reject it without reserving room for the claim.
        let mut payload = encode_run(&RunRecord {
            id: RunId(1),
            groups: vec![group(7, 0.9)],
        });
        payload[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut crc = Crc32::new();
        crc.eat(&payload);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc.finish().to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(BaselineStore::from_bytes(&bytes).run_count(), 0);
    }

    #[test]
    fn bad_magic_is_an_empty_store() {
        assert_eq!(BaselineStore::from_bytes(b"NOTBASE!rest").run_count(), 0);
        assert_eq!(BaselineStore::from_bytes(b"").run_count(), 0);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("vsbase-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.bin");
        let mut store = BaselineStore::new();
        store.record_run(RunId(3), vec![group(7, 0.91)]);
        store.save(&path).unwrap();
        let restored = BaselineStore::load(&path).unwrap();
        assert_eq!(restored.run_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
        // Missing file loads as empty.
        assert_eq!(BaselineStore::load(&path).unwrap().run_count(), 0);
    }
}
