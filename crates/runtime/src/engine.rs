//! The analysis server's streaming detection engine: [`AnalysisServer`]
//! itself — its state and its data path (ingest, detection passes, result
//! folds, snapshots, the control-plane delivery calls). Construction from
//! a write-ahead log, the session handle and the result types live in
//! [`crate::server`].
//!
//! The seed's analysis server was effectively offline: it hoarded every
//! record and ran normalization, matrix construction, and event detection
//! once, in `finalize`. This module is incremental-with-eviction:
//!
//! * **Sharded ingest** — batches are routed by `rank % shards` to one of N
//!   ingest workers, each behind its own lock, so ranks hammering the
//!   server contend only within their shard.
//! * **Incremental accumulators** — records fold into per-cell, per-group
//!   [`GroupAcc`]s instead of a record log. The trick is algebraic: the
//!   seed's cell sum is Σ min(std/avgᵢ, 1) where `std` is the group's
//!   *final* fastest record. Because `std` is the minimum over the very
//!   `avgᵢ` being normalized, the clamp never binds, so the sum decomposes
//!   into `std · Σ(1/avgᵢ) + #zeros` — and `Σ(1/avgᵢ)` is a running sum we
//!   can keep without the records. Standards may keep tightening while the
//!   run is live; the decomposition re-normalizes frozen history for free.
//! * **Bounded-memory eviction** — per rank, only the trailing
//!   [`EVICTION_LAG_BINS`] matrix bins stay in the mutable "hot" form; older
//!   bins freeze into a compact sorted vector. Late (out-of-order) records
//!   transparently reopen and re-freeze their bin.
//! * **A detection stream** — ingest arrivals periodically trigger an
//!   incremental detection pass over provisional standards; events not seen
//!   before are emitted as timestamped [`VarianceAlert`]s *during* the run,
//!   which is the paper's actual pitch (§2: users notice variance while the
//!   program is still running).
//!
//! Determinism: every accumulator is fed by exactly one rank (cells and
//! sensor groups are rank-keyed), each rank's records arrive in program
//! order, and close-time folds walk `BTreeMap`s rank-major — so the folded
//! matrices and summaries are bit-identical for any shard count and any
//! thread interleaving. Only alert *timestamps* depend on arrival
//! interleaving, as they must.

use crate::baseline::{CrossRunFinding, GroupSummary, RegimeChange, RunId, SharedBaseline};
use crate::config::RuntimeConfig;
use crate::control::{ControlDirective, ControlEpoch, ControlStats, Controller};
use crate::detect::{detect_events, VarianceEvent};
use crate::dynrules::Bucket;
use crate::error::{IngestError, RuntimeError};
use crate::history::normalized;
use crate::matrix::PerformanceMatrix;
use crate::record::{SensorInfo, SensorKind, SliceRecord};
use crate::server::{DeliveryQuality, IngestStats, SensorSummary, ServerResult};
use crate::transport::TelemetryBatch;
use crate::wal::WriteAheadLog;
use cluster_sim::time::{BusyClock, Duration, VirtualTime};
use cluster_sim::trace::{self, Category, TraceEvent, SERVER_LANE};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vsensor_lang::SensorId;

/// Byte overhead charged per batch message (header / envelope).
pub(crate) const BATCH_HEADER_BYTES: u64 = 64;

/// How many matrix bins behind a rank's newest bin its hot (mutable,
/// hash-indexed) cells are kept before being frozen into the compact
/// evicted form: enough to absorb the reordering the transport produces
/// without keeping more than a handful of hot cells per rank resident.
const EVICTION_LAG_BINS: u64 = 4;

/// Virtual processing cost charged to a shard's busy clock (and, at the
/// service front door, to the tenant's ledger) per record ingested —
/// server-side load accounting, never charged to ranks.
pub(crate) const SERVER_RECORD_COST: Duration = Duration(20);

/// Virtual cost charged per matrix cell visited by an incremental
/// detection pass (server-side load accounting).
const SERVER_DETECT_CELL_COST: Duration = Duration(5);

/// A normalization group: records sharing a standard. For
/// process-invariant sensors the group spans all ranks; otherwise the
/// cell's rank disambiguates.
type GroupKey = (SensorId, Bucket);

/// Running fold of one normalization group's records: enough to recover
/// Σ normalized(std, avgᵢ) for *any* final standard, without the records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct GroupAcc {
    /// Σ 1/avgᵢ (in 1/ns) over non-zero observations.
    inv_sum: f64,
    /// Observations with avg == 0 (normalized defines them as perfect).
    zeros: u64,
    /// Total observations.
    count: u32,
}

impl GroupAcc {
    fn absorb(&mut self, avg: Duration) {
        if avg.as_nanos() == 0 {
            self.zeros += 1;
        } else {
            self.inv_sum += 1.0 / avg.as_nanos() as f64;
        }
        self.count += 1;
    }

    fn merge(&mut self, other: &GroupAcc) {
        self.inv_sum += other.inv_sum;
        self.zeros += other.zeros;
        self.count += other.count;
    }

    /// Recover `(Σ normalized(std, avgᵢ), count)` for the group's final
    /// standard. `std` is the minimum over the group's own observations,
    /// so `std/avgᵢ ≤ 1` always and the clamp in [`normalized`] never
    /// binds; zero observations normalize to exactly 1.0.
    fn fold(&self, std: Duration) -> (f64, u32) {
        (
            std.as_nanos() as f64 * self.inv_sum + self.zeros as f64,
            self.count,
        )
    }
}

/// Infallible per-[`SensorKind`] storage, indexed by
/// [`SensorKind::index`]. Replaces the `HashMap<SensorKind, _>` lookups
/// whose "all kinds present" invariant previously had to be asserted with
/// an `expect`.
pub(crate) struct KindMap<T>([T; 3]);

impl<T> KindMap<T> {
    pub(crate) fn build(f: impl FnMut(SensorKind) -> T) -> Self {
        KindMap(SensorKind::ALL.map(f))
    }

    pub(crate) fn into_hash_map(self) -> HashMap<SensorKind, T> {
        SensorKind::ALL.into_iter().zip(self.0).collect()
    }
}

impl<T> std::ops::Index<SensorKind> for KindMap<T> {
    type Output = T;
    fn index(&self, kind: SensorKind) -> &T {
        &self.0[kind.index()]
    }
}

impl<T> std::ops::IndexMut<SensorKind> for KindMap<T> {
    fn index_mut(&mut self, kind: SensorKind) -> &mut T {
        &mut self.0[kind.index()]
    }
}

/// One rank's matrix row under construction: hot (mutable) trailing bins
/// plus frozen (compact, sorted) history.
#[derive(Default)]
struct RankCells {
    /// Trailing bins, mutable and hash-free for deterministic folds.
    hot: BTreeMap<u64, BTreeMap<GroupKey, GroupAcc>>,
    /// Evicted bins: per bin, a sorted `(group, acc)` vector.
    frozen: BTreeMap<u64, Vec<(GroupKey, GroupAcc)>>,
    /// Newest bin seen for this rank; drives eviction.
    max_bin: u64,
}

impl RankCells {
    fn absorb(&mut self, bin: u64, key: GroupKey, avg: Duration, lag: u64) {
        self.max_bin = self.max_bin.max(bin);
        self.hot
            .entry(bin)
            .or_default()
            .entry(key)
            .or_default()
            .absorb(avg);
        let threshold = self.max_bin.saturating_sub(lag);
        while let Some((&b, _)) = self.hot.first_key_value() {
            if b >= threshold {
                break;
            }
            let (b, groups) = self.hot.pop_first().expect("checked non-empty");
            let target = self.frozen.entry(b).or_default();
            for (k, acc) in groups {
                match target.binary_search_by(|(tk, _)| tk.cmp(&k)) {
                    Ok(i) => target[i].1.merge(&acc),
                    Err(i) => target.insert(i, (k, acc)),
                }
            }
        }
    }

    /// All bins with frozen and hot contributions merged, in bin order.
    fn merged_bins(&self) -> BTreeMap<u64, BTreeMap<GroupKey, GroupAcc>> {
        let mut out: BTreeMap<u64, BTreeMap<GroupKey, GroupAcc>> = BTreeMap::new();
        for (bin, groups) in &self.frozen {
            let m = out.entry(*bin).or_default();
            for (k, acc) in groups {
                m.entry(*k).or_default().merge(acc);
            }
        }
        for (bin, groups) in &self.hot {
            let m = out.entry(*bin).or_default();
            for (k, acc) in groups {
                m.entry(*k).or_default().merge(acc);
            }
        }
        out
    }
}

/// Per-rank state for the fault-tolerant ingest path.
#[derive(Default)]
pub(crate) struct RankDelivery {
    /// Sequence numbers accepted so far (dedup + gap detection).
    seen: HashSet<u64>,
    accepted: u64,
    duplicates: u64,
    corrupt: u64,
    out_of_order: u64,
    max_seq: Option<u64>,
    /// Sum of (arrival − sent) over accepted batches, for mean latency.
    latency_total: Duration,
}

/// Mutable state of one ingest shard. Every rank with
/// `rank % shards == shard` lives here (local index `rank / shards`), so a
/// rank's entire history is confined to one shard — the basis of the
/// shard-count-invariance guarantee.
struct ShardInner {
    /// Fastest record per (sensor, bucket) for process-invariant sensors —
    /// this shard's contribution to the global min.
    global_std: BTreeMap<GroupKey, Duration>,
    /// Fastest record per (sensor, bucket, rank) for rank-dependent
    /// sensors; ranks never span shards, so no merge is needed.
    local_std: BTreeMap<(SensorId, Bucket, usize), Duration>,
    /// Matrix rows for this shard's ranks, indexed by `rank / shards`.
    cells: Vec<RankCells>,
    /// Per-(sensor, bucket, rank) folds for the sensor summary.
    sensor_acc: BTreeMap<(SensorId, Bucket, usize), GroupAcc>,
    /// Delivery bookkeeping for this shard's ranks, indexed like `cells`.
    delivery: Vec<RankDelivery>,
}

struct Shard {
    inner: Mutex<ShardInner>,
    /// Virtual queueing clock modelling this worker's processing cost.
    clock: BusyClock,
    batches: AtomicU64,
    records: AtomicU64,
}

/// Receipt for one accepted (or deduplicated) batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Sending rank.
    pub rank: usize,
    /// Batch sequence number.
    pub seq: u64,
    /// Ingest shard that absorbed the batch.
    pub shard: usize,
    /// Records absorbed (0 for duplicates).
    pub records: usize,
    /// Wire bytes charged (0 for duplicates).
    pub bytes: u64,
    /// Whether this `(rank, seq)` had been seen before — the payload was
    /// discarded, but the delivery still deserves an ack.
    pub duplicate: bool,
}

/// How the engine learned that a rank fail-stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeathCause {
    /// A buddy rank gossiped the death on its telemetry — authoritative
    /// and sticky.
    Notice,
    /// The rank went silent for `liveness_intervals` detection intervals —
    /// circumstantial, retracted if the rank is heard from again.
    Liveness,
}

impl DeathCause {
    fn label(self) -> &'static str {
        match self {
            DeathCause::Notice => "gossip notice",
            DeathCause::Liveness => "liveness timeout",
        }
    }
}

/// The engine's belief about one fail-stopped rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeathRecord {
    /// The dead rank.
    pub rank: usize,
    /// Estimated (notice) or last-heard-from (liveness) death instant.
    pub at: VirtualTime,
    /// How the engine found out.
    pub cause: DeathCause,
}

impl std::fmt::Display for DeathRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} fail-stopped at {} ({})",
            self.rank,
            self.at,
            self.cause.label()
        )
    }
}

/// What a live alert is about: a performance-variance event, or a rank
/// localized as *dead* — never conflated with 0%-performance variance.
#[derive(Clone, Debug, PartialEq)]
pub enum AlertKind {
    /// A variance event, as understood at emission time (it may grow).
    Variance(VarianceEvent),
    /// A rank was detected as fail-stopped.
    RankDeath(DeathRecord),
    /// The run that just closed began a worsening performance regime
    /// relative to the attached cross-run baseline history — a step
    /// change, not within-run variance and not a transient outlier.
    CrossRunRegression(CrossRunFinding),
}

/// One live detection: a variance event or rank death first observed
/// mid-run.
#[derive(Clone, Debug, PartialEq)]
pub struct VarianceAlert {
    /// Virtual arrival time of the ingest that triggered the detection
    /// pass — when an operator watching the stream would have seen it.
    pub at: VirtualTime,
    /// Which detection pass (1-based) surfaced it (the pass count at
    /// emission, for deaths detected between passes).
    pub pass: u64,
    /// What was detected.
    pub kind: AlertKind,
}

impl VarianceAlert {
    /// The variance event, if this alert carries one.
    pub fn event(&self) -> Option<&VarianceEvent> {
        match &self.kind {
            AlertKind::Variance(e) => Some(e),
            _ => None,
        }
    }

    /// The death record, if this alert reports a fail-stop.
    pub fn death(&self) -> Option<&DeathRecord> {
        match &self.kind {
            AlertKind::RankDeath(d) => Some(d),
            _ => None,
        }
    }

    /// The cross-run finding, if this alert reports a baseline regression.
    pub fn cross_run(&self) -> Option<&CrossRunFinding> {
        match &self.kind {
            AlertKind::CrossRunRegression(f) => Some(f),
            _ => None,
        }
    }
}

impl std::fmt::Display for VarianceAlert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            AlertKind::Variance(e) => write!(f, "t={} pass {}: {}", self.at, self.pass, e),
            AlertKind::RankDeath(d) => write!(f, "t={} pass {}: {}", self.at, self.pass, d),
            AlertKind::CrossRunRegression(c) => {
                write!(
                    f,
                    "t={} pass {}: cross-run regression, {}",
                    self.at, self.pass, c
                )
            }
        }
    }
}

/// Server-side processing load, from the shard busy clocks.
#[derive(Clone, Debug, Default)]
pub struct ServerLoad {
    /// Per-shard load, indexed by shard.
    pub shards: Vec<ShardLoad>,
    /// Incremental detection passes run.
    pub detect_passes: u64,
    /// Virtual time spent in detection passes.
    pub detect_busy: Duration,
}

/// Load of one ingest shard.
#[derive(Clone, Debug)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Batches this shard accepted.
    pub batches: u64,
    /// Records this shard absorbed.
    pub records: u64,
    /// Virtual time spent processing.
    pub busy: Duration,
    /// Virtual instant the shard's queue drained.
    pub free_at: VirtualTime,
}

impl ServerLoad {
    /// Total busy time across shards and detection.
    pub fn total_busy(&self) -> Duration {
        self.shards.iter().map(|s| s.busy).sum::<Duration>() + self.detect_busy
    }

    /// Utilization of the busiest shard over a run length — the ingest
    /// bottleneck indicator.
    pub fn peak_shard_utilization(&self, run_time: Duration) -> f64 {
        if run_time.as_nanos() == 0 {
            return 0.0;
        }
        self.shards
            .iter()
            .map(|s| s.busy.as_nanos() as f64 / run_time.as_nanos() as f64)
            .fold(0.0, f64::max)
    }
}

struct StreamState {
    /// Alerts emitted but not yet polled.
    pending: Vec<VarianceAlert>,
    /// Every event ever alerted, for overlap dedup.
    emitted: Vec<VarianceEvent>,
}

/// The shared analysis server (§5.4): the sharded streaming engine that
/// owns the accumulators, the detection stream, the write-ahead log handle
/// and the budget controller. Ranks obtain an [`IngestSession`] (or reuse
/// one — it is `Sync` and borrows the server) and stream batches in
/// concurrently; closing the session yields the final [`ServerResult`].
///
/// [`IngestSession`]: crate::server::IngestSession
pub struct AnalysisServer {
    config: RuntimeConfig,
    sensors: Vec<SensorInfo>,
    ranks: usize,
    shards: Vec<Shard>,
    bytes: AtomicU64,
    batches: AtomicU64,
    records: AtomicU64,
    malformed: AtomicU64,
    closed: AtomicBool,
    /// Virtual arrival time of the next scheduled detection pass (ns).
    next_detect: AtomicU64,
    detect_passes: AtomicU64,
    detect_clock: BusyClock,
    stream: Mutex<StreamState>,
    /// Raw record log, kept only when `keep_record_log` is set, so
    /// [`AnalysisServer::replay_result`] can cross-check the accumulators against
    /// the seed's batch-at-end algorithm.
    log: Option<Mutex<Vec<(usize, SliceRecord)>>>,
    /// Latest batch arrival per rank, encoded as `arrival_ns + 1` (0 =
    /// never heard from), advanced with `fetch_max` so the value is
    /// interleaving-free.
    last_arrival: Vec<AtomicU64>,
    /// Fail-stop beliefs per rank: `(death instant, how we found out)`.
    deaths: Mutex<Vec<Option<(VirtualTime, DeathCause)>>>,
    /// Fast-path guard: true once any death has ever been recorded, so
    /// healthy runs never touch the `deaths` lock on ingest.
    any_deaths: AtomicBool,
    /// In-memory write-ahead log, when durability is enabled.
    wal: Option<Arc<WriteAheadLog>>,
    /// Serializes whole ingests while a WAL is attached, so log order
    /// equals processing order and recovery replay is a faithful
    /// re-execution.
    ingest_serial: Mutex<()>,
    /// Cross-run baseline comparison, when a store is attached.
    cross_run: Option<CrossRunState>,
    /// Budget/escalation controller, present when the control plane is
    /// enabled. A leaf lock: taken under a shard guard (cost accounting),
    /// under the stream lock (decisions, snapshots), or alone
    /// (channel-facing delivery calls) — never the other way around.
    control: Option<Mutex<Controller>>,
}

/// Cross-run detection state, fixed at attach time (before the engine is
/// shared) except for the findings, which close() fills once.
struct CrossRunState {
    baseline: SharedBaseline,
    run_id: RunId,
    /// Per-kind variance threshold derived from history at attach: the
    /// minimum adaptive threshold over the kind's (sensor, bucket) groups.
    /// `None` where history is too shallow — the fixed config knob rules.
    thresholds: KindMap<Option<f64>>,
    /// Findings of the close-time analysis (empty until close).
    findings: Mutex<Vec<CrossRunFinding>>,
}

impl AnalysisServer {
    /// Create a server for `ranks` ranks and the given sensor table,
    /// rejecting invalid configurations.
    pub fn try_new(
        ranks: usize,
        sensors: Vec<SensorInfo>,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        config.validate()?;
        let nshards = config.shards.max(1);
        let per_shard = |s: usize| {
            if ranks > s {
                (ranks - s).div_ceil(nshards)
            } else {
                0
            }
        };
        let shards = (0..nshards)
            .map(|s| Shard {
                inner: Mutex::new(ShardInner {
                    global_std: BTreeMap::new(),
                    local_std: BTreeMap::new(),
                    cells: std::iter::repeat_with(RankCells::default)
                        .take(per_shard(s))
                        .collect(),
                    sensor_acc: BTreeMap::new(),
                    delivery: std::iter::repeat_with(RankDelivery::default)
                        .take(per_shard(s))
                        .collect(),
                }),
                clock: BusyClock::new(),
                batches: AtomicU64::new(0),
                records: AtomicU64::new(0),
            })
            .collect();
        let log = config.keep_record_log.then(|| Mutex::new(Vec::new()));
        let control = config
            .control_enabled()
            .then(|| Mutex::new(Controller::new(config.clone(), ranks, sensors.len())));
        Ok(AnalysisServer {
            next_detect: AtomicU64::new(config.detect_interval.as_nanos()),
            config,
            sensors,
            ranks,
            shards,
            bytes: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            records: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            detect_passes: AtomicU64::new(0),
            detect_clock: BusyClock::new(),
            stream: Mutex::new(StreamState {
                pending: Vec::new(),
                emitted: Vec::new(),
            }),
            log,
            last_arrival: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(ranks)
                .collect(),
            deaths: Mutex::new(vec![None; ranks]),
            any_deaths: AtomicBool::new(false),
            wal: None,
            ingest_serial: Mutex::new(()),
            cross_run: None,
            control,
        })
    }

    /// Attach the write-ahead log — promote a caught-up replica, or make a
    /// fresh server durable: every batch accepted from now on is journaled
    /// (and ingest serialized — see `ingest_serial`), and detection passes
    /// append engine snapshots. Takes the server by value, so it happens
    /// before the server is shared.
    pub fn into_primary(mut self, wal: &Arc<WriteAheadLog>) -> Self {
        self.wal = Some(wal.clone());
        self
    }

    /// The write-ahead log this server journals to, if it is durable.
    pub(crate) fn wal(&self) -> Option<&Arc<WriteAheadLog>> {
        self.wal.as_ref()
    }

    /// Attach a cross-run baseline store for run `run_id`. Must be called
    /// before the server is shared (it takes `&mut self`). Detection
    /// thresholds become history-adaptive per sensor kind where the store
    /// holds enough runs; at session close the run is analyzed against
    /// history, recorded into the store, and any worsening step regime
    /// surfaces as an [`AlertKind::CrossRunRegression`] alert plus
    /// [`ServerResult::cross_run`] findings. Per-kind adaptive thresholds
    /// are derived from history *now* — detection during the run must not
    /// depend on what later runs record into the shared store — as the
    /// minimum over the kind's per-(sensor, bucket) adaptive cuts: every
    /// group of the kind is held at least to its own historical band.
    pub fn attach_baseline(&mut self, baseline: SharedBaseline, run_id: RunId) {
        let per_group = baseline.with(|store| store.adaptive_thresholds());
        let mut thresholds = KindMap::build(|_| None::<f64>);
        for ((sensor, _bucket), t) in per_group {
            let Some(info) = self.sensors.get(sensor.0 as usize) else {
                continue;
            };
            let slot = &mut thresholds[info.kind];
            *slot = Some(slot.map_or(t, |prev: f64| prev.min(t)));
        }
        self.cross_run = Some(CrossRunState {
            baseline,
            run_id,
            thresholds,
            findings: Mutex::new(Vec::new()),
        });
    }

    /// The detection threshold for one sensor kind: the history-derived
    /// adaptive cut when a baseline with enough runs is attached, the
    /// fixed `variance_threshold` knob otherwise. Used identically by the
    /// streaming passes, `interim`, and `replay_result`, so the
    /// streaming/replay bitwise equivalence holds with or without a
    /// baseline.
    fn threshold_for(&self, kind: SensorKind) -> f64 {
        self.cross_run
            .as_ref()
            .and_then(|c| c.thresholds[kind])
            .unwrap_or(self.config.variance_threshold)
    }

    /// Findings of the close-time cross-run analysis (empty before close
    /// or without an attached baseline).
    fn cross_run_findings(&self) -> Vec<CrossRunFinding> {
        self.cross_run
            .as_ref()
            .map_or_else(Vec::new, |c| c.findings.lock().clone())
    }

    /// The configuration the server runs under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of ranks this server was built for.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Seal the server against further ingest.
    pub(crate) fn close(&self) {
        // Once-only transition: a recovered server may be closed again by
        // the same logical run, and the cross-run analysis must not record
        // that run twice.
        if self.closed.swap(true, Ordering::Relaxed) {
            return;
        }
        self.finish_cross_run();
    }

    /// Close-time cross-run analysis: fold this run's per-(sensor, bucket)
    /// summaries, classify them against the attached baseline history,
    /// record the run into the store, and queue a [`VarianceAlert`] for
    /// every worsening step regime. Lock order matches `run_detect_pass`
    /// (stream first, then all shard guards) so a concurrent pass cannot
    /// deadlock against the close.
    fn finish_cross_run(&self) {
        let Some(cr) = &self.cross_run else { return };
        let mut stream = self.stream.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        let global_std = Self::merged_global_std(&guards);
        let groups = self.group_summaries(&guards, &global_std);
        let findings = cr.baseline.with(|store| {
            let findings = store.analyze(cr.run_id, &groups);
            store.record_run(cr.run_id, groups);
            findings
        });
        // Timestamp alerts at the last ingest arrival the engine saw: the
        // virtual instant an operator watching the stream learns the run's
        // final shape.
        let now = self
            .last_arrival
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .map_or(VirtualTime(0), |enc| VirtualTime(enc.saturating_sub(1)));
        let pass = self.detect_passes.load(Ordering::Relaxed);
        for f in &findings {
            if matches!(f.change, RegimeChange::Step { .. }) && f.is_worsening() {
                stream.pending.push(VarianceAlert {
                    at: now,
                    pass,
                    kind: AlertKind::CrossRunRegression(f.clone()),
                });
            }
        }
        *cr.findings.lock() = findings;
    }

    /// This run's mean normalized performance per (sensor, bucket) group —
    /// the unit the cross-run store records. Same fold as `interim`'s
    /// sensor summary, but keyed one level finer (bucket kept separate):
    /// deterministic because the accumulators walk in `BTreeMap` order.
    fn group_summaries(
        &self,
        guards: &[parking_lot::MutexGuard<'_, ShardInner>],
        global_std: &BTreeMap<GroupKey, Duration>,
    ) -> Vec<GroupSummary> {
        let nshards = self.shards.len();
        let mut acc_all: BTreeMap<(SensorId, Bucket, usize), GroupAcc> = BTreeMap::new();
        for g in guards {
            for (k, a) in &g.sensor_acc {
                acc_all.insert(*k, *a);
            }
        }
        let mut per_group: BTreeMap<(SensorId, Bucket), (f64, u64)> = BTreeMap::new();
        for ((sensor, bucket, rank), acc) in acc_all {
            let info = &self.sensors[sensor.0 as usize];
            let std = if info.process_invariant {
                global_std.get(&(sensor, bucket)).copied()
            } else {
                guards[rank % nshards]
                    .local_std
                    .get(&(sensor, bucket, rank))
                    .copied()
            };
            let Some(std) = std else { continue };
            let (sum, count) = acc.fold(std);
            let e = per_group.entry((sensor, bucket)).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += count as u64;
        }
        per_group
            .into_iter()
            .filter(|&(_, (_, n))| n > 0)
            .map(|((sensor, bucket), (sum, n))| GroupSummary {
                sensor,
                bucket,
                mean_perf: sum / n as f64,
                records: n,
            })
            .collect()
    }

    /// Running ingest counters.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            bytes_received: self.bytes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
        }
    }

    /// `(hot, frozen)` resident cell counts across all ranks — what the
    /// eviction-bound tests measure.
    #[doc(hidden)]
    pub fn cell_stats(&self) -> (usize, usize) {
        let mut hot = 0;
        let mut frozen = 0;
        for shard in &self.shards {
            let inner = shard.inner.lock();
            for cells in &inner.cells {
                hot += cells.hot.len();
                frozen += cells.frozen.len();
            }
        }
        (hot, frozen)
    }

    /// Fold one record into the shard's standards, cells, and summary
    /// accumulators. Returns false (and counts malformed) for records
    /// naming unknown sensors — a corrupted or hostile batch must never
    /// take the server down.
    fn absorb_record(&self, inner: &mut ShardInner, rank: usize, rec: SliceRecord) -> bool {
        let Some(info) = self.sensors.get(rec.sensor.0 as usize) else {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let key = (rec.sensor, rec.bucket);
        if info.process_invariant {
            let e = inner.global_std.entry(key).or_insert(rec.avg);
            if rec.avg < *e {
                *e = rec.avg;
            }
        } else {
            let e = inner
                .local_std
                .entry((rec.sensor, rec.bucket, rank))
                .or_insert(rec.avg);
            if rec.avg < *e {
                *e = rec.avg;
            }
        }
        let bin = rec.slice / self.config.slices_per_bin();
        if rank < self.ranks {
            let local = rank / self.shards.len();
            inner.cells[local].absorb(bin, key, rec.avg, EVICTION_LAG_BINS);
        }
        inner
            .sensor_acc
            .entry((rec.sensor, rec.bucket, rank))
            .or_default()
            .absorb(rec.avg);
        if let Some(log) = &self.log {
            log.lock().push((rank, rec));
        }
        true
    }

    /// Direct test-only path: no sequence numbers, no dedup, no delivery
    /// bookkeeping — retransmitted data only tightens standards.
    #[cfg(test)]
    pub(crate) fn submit(&self, rank: usize, batch: Vec<SliceRecord>) {
        if batch.is_empty() {
            return;
        }
        let shard = &self.shards[rank % self.shards.len()];
        self.bytes.fetch_add(
            BATCH_HEADER_BYTES + batch.len() as u64 * SliceRecord::WIRE_BYTES,
            Ordering::Relaxed,
        );
        self.batches.fetch_add(1, Ordering::Relaxed);
        shard.batches.fetch_add(1, Ordering::Relaxed);
        let mut absorbed = 0u64;
        {
            let mut inner = shard.inner.lock();
            for rec in batch {
                if self.absorb_record(&mut inner, rank, rec) {
                    absorbed += 1;
                }
            }
        }
        self.records.fetch_add(absorbed, Ordering::Relaxed);
        shard.records.fetch_add(absorbed, Ordering::Relaxed);
    }

    /// Sequence-numbered streaming ingest: verify, dedup, absorb, charge
    /// the shard's virtual clock, and maybe trigger a detection pass. The
    /// public door is [`crate::server::IngestSession::ingest`].
    pub(crate) fn ingest(
        &self,
        batch: TelemetryBatch,
        arrival: VirtualTime,
    ) -> Result<IngestReceipt, IngestError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(IngestError::Closed);
        }
        // Write-ahead: log every arriving batch (malformed and corrupt
        // ones included — their counters must replay too) before touching
        // engine state, holding the serialization guard so the log order
        // is exactly the processing order.
        let _serial = self.wal.as_ref().map(|wal| {
            let guard = self.ingest_serial.lock();
            wal.append_batch(batch.clone(), arrival);
            if trace::enabled(Category::ENGINE) {
                trace::record(TraceEvent::instant(
                    Category::ENGINE,
                    "wal_append",
                    SERVER_LANE,
                    arrival.as_nanos(),
                    batch.rank as u64,
                    batch.seq,
                ));
            }
            guard
        });
        if batch.rank >= self.ranks {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            return Err(IngestError::Malformed {
                rank: batch.rank,
                ranks: self.ranks,
            });
        }
        let rank = batch.rank;
        self.note_arrival(rank, arrival);
        // Gossip rides outside the CRC; process it for duplicates too —
        // `note_death` is idempotent, which is what makes repeating the
        // notice on every batch loss-tolerant.
        if let Some(notice) = batch.death_notice {
            if notice.rank < self.ranks {
                self.note_death(notice.rank, notice.at, DeathCause::Notice, arrival);
            }
        }
        let shard_idx = rank % self.shards.len();
        let local = rank / self.shards.len();
        let shard = &self.shards[shard_idx];
        let (absorbed, bytes) = {
            let mut inner = shard.inner.lock();
            if !batch.verify() {
                inner.delivery[local].corrupt += 1;
                return Err(IngestError::Corrupt {
                    rank,
                    seq: batch.seq,
                });
            }
            let d = &mut inner.delivery[local];
            if !d.seen.insert(batch.seq) {
                d.duplicates += 1;
                return Ok(IngestReceipt {
                    rank,
                    seq: batch.seq,
                    shard: shard_idx,
                    records: 0,
                    bytes: 0,
                    duplicate: true,
                });
            }
            d.accepted += 1;
            if let Some(max) = d.max_seq {
                if batch.seq < max {
                    d.out_of_order += 1; // a late batch overtaken in flight
                }
            }
            d.max_seq = Some(d.max_seq.map_or(batch.seq, |m| m.max(batch.seq)));
            d.latency_total += arrival.since(batch.sent_at);
            // Controller cost accounting shares the shard guard's
            // atomicity: a batch is either fully before or fully after any
            // decision pass, exactly like the matrix accumulators — which
            // is what keeps streaming and WAL-replay decisions identical.
            if let Some(ctl) = &self.control {
                ctl.lock().observe_batch(rank, &batch.records);
            }
            let bytes = BATCH_HEADER_BYTES + batch.records.len() as u64 * SliceRecord::WIRE_BYTES;
            let mut absorbed = 0u64;
            for rec in batch.records {
                if self.absorb_record(&mut inner, rank, rec) {
                    absorbed += 1;
                }
            }
            (absorbed, bytes)
        };
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.records.fetch_add(absorbed, Ordering::Relaxed);
        shard.batches.fetch_add(1, Ordering::Relaxed);
        shard.records.fetch_add(absorbed, Ordering::Relaxed);
        let ingest_cost = Duration::from_nanos(SERVER_RECORD_COST.as_nanos() * absorbed);
        shard.clock.charge(arrival, ingest_cost);
        if trace::enabled(Category::ENGINE) {
            trace::record(TraceEvent::complete(
                Category::ENGINE,
                "ingest",
                SERVER_LANE,
                shard_idx as u32,
                arrival.as_nanos(),
                ingest_cost.as_nanos(),
                rank as u64,
                absorbed,
            ));
        }
        self.maybe_detect(arrival);
        Ok(IngestReceipt {
            rank,
            seq: batch.seq,
            shard: shard_idx,
            records: absorbed as usize,
            bytes,
            duplicate: false,
        })
    }

    /// Note that `rank` was heard from at `arrival`. A liveness-timeout
    /// death verdict is circumstantial — hearing from the rank again
    /// retracts it (gossip notices are sticky).
    fn note_arrival(&self, rank: usize, arrival: VirtualTime) {
        self.last_arrival[rank].fetch_max(arrival.as_nanos() + 1, Ordering::Relaxed);
        if self.any_deaths.load(Ordering::Relaxed) {
            let mut deaths = self.deaths.lock();
            if matches!(deaths[rank], Some((_, DeathCause::Liveness))) {
                deaths[rank] = None;
            }
        }
    }

    /// Record a rank death, idempotently: repeated identical evidence is a
    /// no-op, earlier death instants win within a cause, and an
    /// authoritative gossip notice upgrades a circumstantial liveness
    /// verdict. Fresh verdicts emit a [`AlertKind::RankDeath`] alert.
    fn note_death(&self, rank: usize, at: VirtualTime, cause: DeathCause, now: VirtualTime) {
        let mut deaths = self.deaths.lock();
        let slot = &mut deaths[rank];
        let fresh = match *slot {
            None => true,
            Some((_, DeathCause::Liveness)) if cause == DeathCause::Notice => true,
            Some((t, c)) => {
                if c == cause && at < t {
                    *slot = Some((at, cause)); // tighten, but don't re-alert
                }
                false
            }
        };
        if !fresh {
            return;
        }
        *slot = Some((at, cause));
        self.any_deaths.store(true, Ordering::Relaxed);
        drop(deaths); // lock order: `deaths` is a leaf — never hold it across `stream`
                      // A dead rank's pending directive is cancelled immediately — never
                      // retried forever, never counted as overhead.
        if let Some(ctl) = &self.control {
            ctl.lock().cancel_dead(rank);
        }
        let record = DeathRecord { rank, at, cause };
        let pass = self.detect_passes.load(Ordering::Relaxed);
        self.stream.lock().pending.push(VarianceAlert {
            at: now,
            pass,
            kind: AlertKind::RankDeath(record),
        });
        if trace::enabled(Category::ENGINE) {
            trace::record(TraceEvent::instant(
                Category::ENGINE,
                "rank_dead",
                SERVER_LANE,
                now.as_nanos(),
                rank as u64,
                at.as_nanos(),
            ));
        }
    }

    /// Sweep for ranks that went silent: a rank that has ever sent but has
    /// not been heard from for `liveness_intervals` detection intervals is
    /// presumed fail-stopped at its last-heard-from instant.
    fn liveness_scan(&self, now: VirtualTime) {
        let horizon = self
            .config
            .detect_interval
            .as_nanos()
            .saturating_mul(self.config.liveness_intervals as u64);
        for rank in 0..self.ranks {
            let enc = self.last_arrival[rank].load(Ordering::Relaxed);
            if enc == 0 {
                continue; // never heard from: indistinguishable from a slow start
            }
            let last = enc - 1;
            if last.saturating_add(horizon) <= now.as_nanos() {
                self.note_death(rank, VirtualTime(last), DeathCause::Liveness, now);
            }
        }
    }

    /// Ranks the engine currently believes fail-stopped, in rank order.
    pub fn failed_ranks(&self) -> Vec<DeathRecord> {
        self.deaths
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(rank, d)| d.map(|(at, cause)| DeathRecord { rank, at, cause }))
            .collect()
    }

    /// Run a detection pass if this arrival crossed the schedule. The CAS
    /// makes exactly one ingesting thread the winner per crossing.
    fn maybe_detect(&self, now: VirtualTime) {
        if self.ranks == 0 {
            return;
        }
        loop {
            let due = self.next_detect.load(Ordering::Relaxed);
            if now.as_nanos() < due {
                return;
            }
            let next = now.as_nanos() + self.config.detect_interval.as_nanos().max(1);
            if self
                .next_detect
                .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        self.run_detect_pass(now);
    }

    /// One incremental detection pass: fold provisional matrices against
    /// *current* (still-tightening) standards, diff the detected events
    /// against everything already alerted, and queue the genuinely new
    /// ones. Holding the stream lock serializes passes that race across
    /// consecutive schedule crossings.
    fn run_detect_pass(&self, now: VirtualTime) {
        self.liveness_scan(now);
        let mut stream = self.stream.lock();
        let bins = (self.config.matrix_bin(now).saturating_add(1)) as usize;
        let guards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        let global_std = Self::merged_global_std(&guards);
        let matrices = self.fold_matrices(&guards, &global_std, bins);
        let pass = self.detect_passes.fetch_add(1, Ordering::Relaxed) + 1;
        let cells_visited = (self.ranks * bins * SensorKind::ALL.len()) as u64;
        let detect_cost = Duration::from_nanos(SERVER_DETECT_CELL_COST.as_nanos() * cells_visited);
        self.detect_clock.charge(now, detect_cost);
        if trace::enabled(Category::ENGINE) {
            trace::record(TraceEvent::complete(
                Category::ENGINE,
                "detect_pass",
                SERVER_LANE,
                self.shards.len() as u32,
                now.as_nanos(),
                detect_cost.as_nanos(),
                pass,
                cells_visited,
            ));
        }
        let mut fresh_spans: Vec<(usize, usize)> = Vec::new();
        for kind in SensorKind::ALL {
            let events =
                detect_events(&matrices[kind], kind, self.threshold_for(kind)).unwrap_or_default();
            for event in events {
                let already = stream.emitted.iter().any(|e| {
                    e.kind == event.kind
                        && e.first_rank <= event.last_rank
                        && event.first_rank <= e.last_rank
                        && e.start_bin < event.end_bin
                        && event.start_bin < e.end_bin
                });
                if !already {
                    fresh_spans.push((event.first_rank, event.last_rank));
                    stream.emitted.push(event.clone());
                    stream.pending.push(VarianceAlert {
                        at: now,
                        pass,
                        kind: AlertKind::Variance(event),
                    });
                }
            }
        }
        // Control decisions ride the serialized detection pass, before the
        // snapshot below: the epoch schedule becomes a pure function of
        // ingested telemetry, so WAL replay reproduces it bitwise.
        if let Some(ctl) = &self.control {
            let dead: Vec<bool> = self.deaths.lock().iter().map(Option::is_some).collect();
            ctl.lock().decide(now, pass, &fresh_spans, |r| dead[r]);
        }
        // Pass boundaries are the durability points: with a WAL attached,
        // checkpoint the whole engine every pass so recovery replays at
        // most one interval of batches.
        if let Some(wal) = &self.wal {
            wal.append_snapshot(self.snapshot_locked(&guards, &stream));
            if trace::enabled(Category::ENGINE) {
                trace::record(TraceEvent::instant(
                    Category::ENGINE,
                    "wal_snapshot",
                    SERVER_LANE,
                    now.as_nanos(),
                    pass,
                    wal.batch_entries() as u64,
                ));
            }
        }
    }

    /// Drain detection-stream alerts emitted since the last poll. Shared
    /// with [`crate::server::IngestSession::poll_events`]; a monitor thread
    /// that holds only the server `Arc` can watch the stream directly.
    pub fn poll_events(&self) -> Vec<VarianceAlert> {
        std::mem::take(&mut self.stream.lock().pending)
    }

    /// Merge the per-shard invariant standards into the global minimum.
    /// Exact: `min` is associative and order-free on integers.
    fn merged_global_std(
        guards: &[parking_lot::MutexGuard<'_, ShardInner>],
    ) -> BTreeMap<GroupKey, Duration> {
        let mut merged: BTreeMap<GroupKey, Duration> = BTreeMap::new();
        for g in guards {
            for (k, v) in &g.global_std {
                merged
                    .entry(*k)
                    .and_modify(|e| {
                        if v < e {
                            *e = *v;
                        }
                    })
                    .or_insert(*v);
            }
        }
        merged
    }

    /// Fold the accumulators into per-kind matrices, rank-major and
    /// group-key-ordered, so the float sums are reproducible. Dead ranks
    /// are mask-marked from their death bin onward.
    fn fold_matrices(
        &self,
        guards: &[parking_lot::MutexGuard<'_, ShardInner>],
        global_std: &BTreeMap<GroupKey, Duration>,
        bins: usize,
    ) -> KindMap<PerformanceMatrix> {
        let mut matrices = KindMap::build(|_| {
            PerformanceMatrix::new(self.ranks, bins, self.config.matrix_resolution)
        });
        let nshards = self.shards.len();
        for rank in 0..self.ranks {
            let inner = &guards[rank % nshards];
            let cells = &inner.cells[rank / nshards];
            for (bin, groups) in cells.merged_bins() {
                for (key, acc) in groups {
                    let info = &self.sensors[key.0 .0 as usize];
                    let std = if info.process_invariant {
                        global_std.get(&key).copied()
                    } else {
                        inner.local_std.get(&(key.0, key.1, rank)).copied()
                    };
                    let Some(std) = std else { continue };
                    let (sum, count) = acc.fold(std);
                    matrices[info.kind].add_aggregate(rank, bin, sum, count);
                }
            }
        }
        self.mask_dead(&mut matrices);
        matrices
    }

    /// Mark every believed-dead rank's cells as dead from its death bin
    /// onward, in all three matrices — detection then skips them, so a
    /// killed rank can never read as 0%-performance variance.
    fn mask_dead(&self, matrices: &mut KindMap<PerformanceMatrix>) {
        if !self.any_deaths.load(Ordering::Relaxed) {
            return;
        }
        let deaths = self.deaths.lock();
        for (rank, death) in deaths.iter().enumerate() {
            if let Some((at, _)) = death {
                let bin = self.config.matrix_bin(*at);
                for kind in SensorKind::ALL {
                    matrices[kind].mark_dead(rank, bin);
                }
            }
        }
    }

    /// Build the full result over `[0, up_to)` from the accumulators.
    /// Non-destructive, callable while ranks are still streaming: §2's
    /// workflow updates the report *periodically while the program runs* —
    /// this is that read, and the close-time read too.
    pub fn interim(&self, up_to: VirtualTime) -> ServerResult {
        let bins = (self.config.matrix_bin(up_to).saturating_add(1)) as usize;
        let guards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        let global_std = Self::merged_global_std(&guards);
        let matrices = self.fold_matrices(&guards, &global_std, bins);

        let mut events = Vec::new();
        if self.ranks > 0 {
            for kind in SensorKind::ALL {
                events.extend(
                    detect_events(&matrices[kind], kind, self.threshold_for(kind))
                        .unwrap_or_default(),
                );
            }
        }
        events.sort_by(|a, b| {
            (a.start_bin, a.first_rank, a.kind).cmp(&(b.start_bin, b.first_rank, b.kind))
        });

        // Per-sensor summary, folded in (sensor, bucket, rank) order; each
        // key lives in exactly one shard, so this union is disjoint.
        let nshards = self.shards.len();
        let mut acc_all: BTreeMap<(SensorId, Bucket, usize), GroupAcc> = BTreeMap::new();
        for g in &guards {
            for (k, a) in &g.sensor_acc {
                acc_all.insert(*k, *a);
            }
        }
        let mut per_sensor: BTreeMap<SensorId, (f64, u64)> = BTreeMap::new();
        for ((sensor, bucket, rank), acc) in acc_all {
            let info = &self.sensors[sensor.0 as usize];
            let std = if info.process_invariant {
                global_std.get(&(sensor, bucket)).copied()
            } else {
                guards[rank % nshards]
                    .local_std
                    .get(&(sensor, bucket, rank))
                    .copied()
            };
            let Some(std) = std else { continue };
            let (sum, count) = acc.fold(std);
            let e = per_sensor.entry(sensor).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += count as u64;
        }
        let mut sensor_summary: Vec<SensorSummary> = per_sensor
            .into_iter()
            .map(|(sensor, (sum, n))| SensorSummary {
                sensor,
                location: self.sensors[sensor.0 as usize].location.clone(),
                kind: self.sensors[sensor.0 as usize].kind,
                mean_perf: sum / n as f64,
                records: n,
            })
            .collect();
        sensor_summary.sort_by(|a, b| {
            a.mean_perf
                .partial_cmp(&b.mean_perf)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let delivery = (0..self.ranks)
            .map(|rank| {
                Self::delivery_quality(rank, &guards[rank % nshards].delivery[rank / nshards])
            })
            .collect();

        let stats = self.stats();
        ServerResult {
            matrices: matrices.into_hash_map(),
            events,
            sensor_summary,
            bytes_received: stats.bytes_received,
            batches: stats.batches,
            records: stats.records as usize,
            delivery,
            malformed_records: stats.malformed,
            load: self.load(),
            failed_ranks: self.failed_ranks(),
            cross_run: self.cross_run_findings(),
            control: self.control_stats(),
        }
    }

    fn delivery_quality(rank: usize, d: &RankDelivery) -> DeliveryQuality {
        let expected = d.max_seq.map_or(0, |m| m + 1);
        let gaps = expected.saturating_sub(d.seen.len() as u64);
        DeliveryQuality {
            rank,
            accepted: d.accepted,
            duplicates: d.duplicates,
            corrupt: d.corrupt,
            gaps,
            out_of_order: d.out_of_order,
            delivery_ratio: if expected == 0 {
                1.0
            } else {
                d.accepted as f64 / expected as f64
            },
            mean_latency: d
                .latency_total
                .as_nanos()
                .checked_div(d.accepted)
                .map_or(Duration::ZERO, Duration::from_nanos),
        }
    }

    /// Server-side processing load (shard busy clocks, detection cost).
    pub fn load(&self) -> ServerLoad {
        ServerLoad {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardLoad {
                    shard: i,
                    batches: s.batches.load(Ordering::Relaxed),
                    records: s.records.load(Ordering::Relaxed),
                    busy: s.clock.busy_time(),
                    free_at: s.clock.free_at(),
                })
                .collect(),
            detect_passes: self.detect_passes.load(Ordering::Relaxed),
            detect_busy: self.detect_clock.busy_time(),
        }
    }

    /// Recompute the result with the seed's batch-at-end algorithm from
    /// the raw record log — the independent oracle the equivalence tests
    /// compare the streaming accumulators against. Requires
    /// `keep_record_log`.
    pub fn replay_result(&self, run_end: VirtualTime) -> Result<ServerResult, RuntimeError> {
        let log = self.log.as_ref().ok_or(RuntimeError::RecordLogDisabled)?;
        let records = log.lock().clone();

        // Standards, exactly as the seed's absorb_record built them.
        let mut global_std: HashMap<GroupKey, Duration> = HashMap::new();
        let mut local_std: HashMap<(SensorId, Bucket, usize), Duration> = HashMap::new();
        for (rank, rec) in &records {
            let info = &self.sensors[rec.sensor.0 as usize];
            if info.process_invariant {
                let e = global_std
                    .entry((rec.sensor, rec.bucket))
                    .or_insert(rec.avg);
                if rec.avg < *e {
                    *e = rec.avg;
                }
            } else {
                let e = local_std
                    .entry((rec.sensor, rec.bucket, *rank))
                    .or_insert(rec.avg);
                if rec.avg < *e {
                    *e = rec.avg;
                }
            }
        }

        // Matrices, per-record in log order — the seed's finalize loop.
        let bins = (self.config.matrix_bin(run_end).saturating_add(1)) as usize;
        let mut matrices = KindMap::build(|_| {
            PerformanceMatrix::new(self.ranks, bins, self.config.matrix_resolution)
        });
        let slice_per_bin = self.config.slices_per_bin();
        for (rank, rec) in &records {
            let info = &self.sensors[rec.sensor.0 as usize];
            let std = if info.process_invariant {
                global_std.get(&(rec.sensor, rec.bucket)).copied()
            } else {
                local_std.get(&(rec.sensor, rec.bucket, *rank)).copied()
            };
            let Some(std) = std else { continue };
            let perf = normalized(std, rec.avg);
            let bin = rec.slice / slice_per_bin;
            matrices[info.kind].add(*rank, bin, perf);
        }
        self.mask_dead(&mut matrices);

        let mut events = Vec::new();
        if self.ranks > 0 {
            for kind in SensorKind::ALL {
                events.extend(
                    detect_events(&matrices[kind], kind, self.threshold_for(kind))
                        .unwrap_or_default(),
                );
            }
        }
        events.sort_by(|a, b| {
            (a.start_bin, a.first_rank, a.kind).cmp(&(b.start_bin, b.first_rank, b.kind))
        });

        let mut per_sensor_acc: HashMap<SensorId, (f64, u64)> = HashMap::new();
        for (rank, rec) in &records {
            let info = &self.sensors[rec.sensor.0 as usize];
            let std = if info.process_invariant {
                global_std.get(&(rec.sensor, rec.bucket)).copied()
            } else {
                local_std.get(&(rec.sensor, rec.bucket, *rank)).copied()
            };
            let Some(std) = std else { continue };
            let e = per_sensor_acc.entry(rec.sensor).or_insert((0.0, 0));
            e.0 += normalized(std, rec.avg);
            e.1 += 1;
        }
        let mut sensor_summary: Vec<SensorSummary> = per_sensor_acc
            .into_iter()
            .map(|(sensor, (sum, n))| SensorSummary {
                sensor,
                location: self.sensors[sensor.0 as usize].location.clone(),
                kind: self.sensors[sensor.0 as usize].kind,
                mean_perf: sum / n as f64,
                records: n,
            })
            .collect();
        sensor_summary.sort_by(|a, b| {
            a.mean_perf
                .partial_cmp(&b.mean_perf)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let guards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        let nshards = self.shards.len();
        let delivery = (0..self.ranks)
            .map(|rank| {
                Self::delivery_quality(rank, &guards[rank % nshards].delivery[rank / nshards])
            })
            .collect();

        let stats = self.stats();
        Ok(ServerResult {
            matrices: matrices.into_hash_map(),
            events,
            sensor_summary,
            bytes_received: stats.bytes_received,
            batches: stats.batches,
            records: records.len(),
            delivery,
            malformed_records: stats.malformed,
            load: self.load(),
            failed_ranks: self.failed_ranks(),
            cross_run: self.cross_run_findings(),
            control: self.control_stats(),
        })
    }

    // ------------------------------------------------------------------
    // Snapshot / restore — the durability half of the WAL design.
    // ------------------------------------------------------------------

    /// Serialize every piece of mutable engine state into an
    /// [`EngineSnapshot`]. Called at a detect-pass boundary while holding
    /// the stream lock and all shard guards, so the snapshot is a
    /// consistent cut of the serialized ingest order.
    fn snapshot_locked(
        &self,
        guards: &[parking_lot::MutexGuard<'_, ShardInner>],
        stream: &StreamState,
    ) -> EngineSnapshot {
        let shards = self
            .shards
            .iter()
            .zip(guards)
            .map(|(shard, inner)| ShardSnapshot {
                global_std: inner.global_std.iter().map(|(k, v)| (*k, *v)).collect(),
                local_std: inner.local_std.iter().map(|(k, v)| (*k, *v)).collect(),
                cells: inner
                    .cells
                    .iter()
                    .map(|c| RankCellsSnapshot {
                        hot: c
                            .hot
                            .iter()
                            .map(|(bin, groups)| {
                                (*bin, groups.iter().map(|(k, a)| (*k, *a)).collect())
                            })
                            .collect(),
                        frozen: c
                            .frozen
                            .iter()
                            .map(|(bin, groups)| (*bin, groups.clone()))
                            .collect(),
                        max_bin: c.max_bin,
                    })
                    .collect(),
                sensor_acc: inner.sensor_acc.iter().map(|(k, a)| (*k, *a)).collect(),
                delivery: inner
                    .delivery
                    .iter()
                    .map(|d| {
                        let mut seen: Vec<u64> = d.seen.iter().copied().collect();
                        seen.sort_unstable();
                        RankDeliverySnapshot {
                            seen,
                            accepted: d.accepted,
                            duplicates: d.duplicates,
                            corrupt: d.corrupt,
                            out_of_order: d.out_of_order,
                            max_seq: d.max_seq,
                            latency_total: d.latency_total,
                        }
                    })
                    .collect(),
                batches: shard.batches.load(Ordering::Relaxed),
                records: shard.records.load(Ordering::Relaxed),
                clock: (shard.clock.free_at(), shard.clock.busy_time()),
            })
            .collect();
        EngineSnapshot {
            shards,
            bytes: self.bytes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            next_detect: self.next_detect.load(Ordering::Relaxed),
            detect_passes: self.detect_passes.load(Ordering::Relaxed),
            detect_clock: (self.detect_clock.free_at(), self.detect_clock.busy_time()),
            pending: stream.pending.clone(),
            emitted: stream.emitted.clone(),
            log: self.log.as_ref().map(|l| l.lock().clone()),
            deaths: self.deaths.lock().clone(),
            last_arrival: self
                .last_arrival
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            control: self.control.as_ref().map(|c| c.lock().clone()),
        }
    }

    /// Take a snapshot outside a detection pass — test-only convenience.
    #[cfg(test)]
    pub(crate) fn snapshot_for_tests(&self) -> EngineSnapshot {
        let stream = self.stream.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.inner.lock()).collect();
        self.snapshot_locked(&guards, &stream)
    }

    /// Rebuild the engine's mutable state from a snapshot. The inverse of
    /// [`AnalysisServer::snapshot_locked`]; requires exclusive ownership (recovery
    /// happens before the engine is shared).
    pub(crate) fn restore(&mut self, snap: &EngineSnapshot) {
        for (shard, s) in self.shards.iter_mut().zip(&snap.shards) {
            let inner = shard.inner.get_mut();
            inner.global_std = s.global_std.iter().copied().collect();
            inner.local_std = s.local_std.iter().copied().collect();
            inner.cells = s
                .cells
                .iter()
                .map(|c| RankCells {
                    hot: c
                        .hot
                        .iter()
                        .map(|(bin, groups)| (*bin, groups.iter().copied().collect()))
                        .collect(),
                    frozen: c
                        .frozen
                        .iter()
                        .map(|(bin, groups)| (*bin, groups.clone()))
                        .collect(),
                    max_bin: c.max_bin,
                })
                .collect();
            inner.sensor_acc = s.sensor_acc.iter().copied().collect();
            inner.delivery = s
                .delivery
                .iter()
                .map(|d| RankDelivery {
                    seen: d.seen.iter().copied().collect(),
                    accepted: d.accepted,
                    duplicates: d.duplicates,
                    corrupt: d.corrupt,
                    out_of_order: d.out_of_order,
                    max_seq: d.max_seq,
                    latency_total: d.latency_total,
                })
                .collect();
            shard.batches = AtomicU64::new(s.batches);
            shard.records = AtomicU64::new(s.records);
            shard.clock = BusyClock::restore(s.clock.0, s.clock.1);
        }
        self.bytes = AtomicU64::new(snap.bytes);
        self.batches = AtomicU64::new(snap.batches);
        self.records = AtomicU64::new(snap.records);
        self.malformed = AtomicU64::new(snap.malformed);
        self.next_detect = AtomicU64::new(snap.next_detect);
        self.detect_passes = AtomicU64::new(snap.detect_passes);
        self.detect_clock = BusyClock::restore(snap.detect_clock.0, snap.detect_clock.1);
        {
            let stream = self.stream.get_mut();
            stream.pending = snap.pending.clone();
            stream.emitted = snap.emitted.clone();
        }
        if let (Some(log), Some(snap_log)) = (&mut self.log, &snap.log) {
            *log.get_mut() = snap_log.clone();
        }
        *self.deaths.get_mut() = snap.deaths.clone();
        self.any_deaths = AtomicBool::new(snap.deaths.iter().any(Option::is_some));
        self.last_arrival = snap
            .last_arrival
            .iter()
            .map(|&v| AtomicU64::new(v))
            .collect();
        if let (Some(ctl), Some(snap_ctl)) = (&mut self.control, &snap.control) {
            *ctl.get_mut() = snap_ctl.clone();
        }
    }

    // ------------------------------------------------------------------
    // Control plane (present when `RuntimeConfig::control_enabled`) —
    // channel-facing delivery calls; each is a no-op returning nothing
    // when the control plane is off. Each takes only the controller's
    // leaf lock; none may be called with a shard or stream lock held.
    // ------------------------------------------------------------------

    /// Begin one delivery attempt of `rank`'s pending control directive,
    /// if one is due at `now`. Returns the directive and the attempt
    /// number (1-based, feeds the fault dice).
    pub fn control_begin_attempt(
        &self,
        rank: usize,
        now: VirtualTime,
    ) -> Option<(ControlDirective, u32)> {
        self.control.as_ref()?.lock().begin_attempt(rank, now)
    }

    /// Record that the fault dice destroyed a begun attempt.
    pub fn control_delivery_lost(&self, rank: usize) {
        if let Some(ctl) = &self.control {
            ctl.lock().delivery_lost(rank);
        }
    }

    /// Record that the fault dice delayed a begun attempt until `until`.
    pub fn control_delay(&self, rank: usize, until: VirtualTime) {
        if let Some(ctl) = &self.control {
            ctl.lock().delay_delivery(rank, until);
        }
    }

    /// Record that `rank` acknowledged every epoch up to `epoch`.
    pub fn control_ack(&self, rank: usize, epoch: u64) {
        if let Some(ctl) = &self.control {
            ctl.lock().ack(rank, epoch);
        }
    }

    /// Control-plane counters (`None` when the control plane is off).
    pub fn control_stats(&self) -> Option<ControlStats> {
        self.control.as_ref().map(|c| c.lock().stats())
    }

    /// The issued-epoch log in decision order — what the crash-recovery
    /// contract compares bitwise across a server crash.
    pub fn control_schedule(&self) -> Vec<ControlEpoch> {
        self.control
            .as_ref()
            .map_or_else(Vec::new, |c| c.lock().schedule())
    }

    /// The controller's per-rank cumulative instrumentation-cost model,
    /// in nanoseconds (`None` when the control plane is off).
    pub fn control_costs(&self) -> Option<Vec<u64>> {
        self.control.as_ref().map(|c| c.lock().observed_costs())
    }
}

/// A consistent cut of one ingest shard's mutable state, in sorted
/// serialized form (maps and sets flattened to ordered pairs).
#[derive(Clone, Debug)]
pub(crate) struct ShardSnapshot {
    global_std: Vec<(GroupKey, Duration)>,
    local_std: Vec<((SensorId, Bucket, usize), Duration)>,
    cells: Vec<RankCellsSnapshot>,
    sensor_acc: Vec<((SensorId, Bucket, usize), GroupAcc)>,
    delivery: Vec<RankDeliverySnapshot>,
    batches: u64,
    records: u64,
    clock: (VirtualTime, Duration),
}

#[derive(Clone, Debug)]
struct RankCellsSnapshot {
    hot: Vec<(u64, Vec<(GroupKey, GroupAcc)>)>,
    frozen: Vec<(u64, Vec<(GroupKey, GroupAcc)>)>,
    max_bin: u64,
}

#[derive(Clone, Debug)]
struct RankDeliverySnapshot {
    seen: Vec<u64>,
    accepted: u64,
    duplicates: u64,
    corrupt: u64,
    out_of_order: u64,
    max_seq: Option<u64>,
    latency_total: Duration,
}

/// Everything mutable about an [`AnalysisServer`], checkpointed at a detect-pass
/// boundary. [`AnalysisServer::restore`] + replay of the WAL tail after this
/// snapshot reproduces the live engine bit-for-bit.
#[derive(Clone, Debug)]
pub(crate) struct EngineSnapshot {
    shards: Vec<ShardSnapshot>,
    bytes: u64,
    batches: u64,
    records: u64,
    malformed: u64,
    next_detect: u64,
    detect_passes: u64,
    detect_clock: (VirtualTime, Duration),
    pending: Vec<VarianceAlert>,
    emitted: Vec<VarianceEvent>,
    log: Option<Vec<(usize, SliceRecord)>>,
    deaths: Vec<Option<(VirtualTime, DeathCause)>>,
    last_arrival: Vec<u64>,
    /// Full controller state, when the control plane is on. `None` folds
    /// nothing into the fingerprint, so control-off snapshots (and their
    /// WAL frames) are byte-compatible with earlier builds.
    control: Option<Controller>,
}

impl EngineSnapshot {
    /// Order-sensitive digest of the snapshot's counters and shapes, used
    /// by the WAL to CRC-frame snapshot entries. Not a full content hash —
    /// it covers every counter that replay equivalence depends on, which
    /// is enough to catch a torn or bit-flipped frame in simulation.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        fold(self.bytes);
        fold(self.batches);
        fold(self.records);
        fold(self.malformed);
        fold(self.next_detect);
        fold(self.detect_passes);
        fold(self.detect_clock.0.as_nanos());
        fold(self.detect_clock.1.as_nanos());
        fold(self.pending.len() as u64);
        fold(self.emitted.len() as u64);
        fold(self.log.as_ref().map_or(u64::MAX, |l| l.len() as u64));
        fold(self.deaths.iter().flatten().count() as u64);
        for &a in &self.last_arrival {
            fold(a);
        }
        for s in &self.shards {
            fold(s.batches);
            fold(s.records);
            fold(s.clock.0.as_nanos());
            fold(s.clock.1.as_nanos());
            fold(s.global_std.len() as u64);
            fold(s.local_std.len() as u64);
            fold(s.cells.len() as u64);
            fold(s.sensor_acc.len() as u64);
            fold(s.delivery.len() as u64);
        }
        if let Some(c) = &self.control {
            c.fold_fingerprint(&mut fold);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn engine(ranks: usize, shards: usize) -> AnalysisServer {
        let config = RuntimeConfig {
            shards,
            keep_record_log: true,
            ..RuntimeConfig::free_probes()
        };
        AnalysisServer::new(
            ranks,
            vec![sensor_info(0, SensorKind::Computation, true)],
            config,
        )
    }

    #[test]
    fn group_acc_decomposition_matches_per_record_normalization() {
        let avgs = [13u64, 29, 13, 0, 997, 31];
        let std = Duration::from_micros(13); // = min of the non-zero avgs
        let mut acc = GroupAcc::default();
        let mut reference = 0.0;
        for &us in &avgs {
            acc.absorb(Duration::from_micros(us));
            reference += normalized(std, Duration::from_micros(us));
        }
        let (sum, count) = acc.fold(std);
        assert_eq!(count as usize, avgs.len());
        assert!((sum - reference).abs() < 1e-9, "{sum} vs {reference}");
    }

    #[test]
    fn eviction_keeps_hot_window_bounded() {
        let mut cells = RankCells::default();
        let key = (SensorId(0), Bucket(0));
        for bin in 0..100 {
            cells.absorb(bin, key, Duration::from_micros(10), 4);
        }
        assert!(cells.hot.len() <= 5, "hot bins: {}", cells.hot.len());
        assert_eq!(cells.hot.len() + cells.frozen.len(), 100);
        // A late record reopens its bin and is re-frozen, not lost.
        cells.absorb(3, key, Duration::from_micros(10), 4);
        let merged = cells.merged_bins();
        assert_eq!(merged[&3][&key].count, 2);
        assert_eq!(merged.len(), 100);
    }

    #[test]
    fn shard_count_does_not_change_folded_results() {
        let mut results = Vec::new();
        for shards in [1, 3, 4] {
            let e = engine(8, shards);
            for rank in 0..8 {
                for slice in 0..400u64 {
                    let avg = if rank == 5 { 25 } else { 10 };
                    e.submit(rank, vec![rec(0, slice, avg)]);
                }
            }
            results.push(e.interim(VirtualTime::from_millis(400)));
        }
        let reference = &results[0];
        let m0 = &reference.matrices[&SensorKind::Computation];
        for r in &results[1..] {
            assert_eq!(r.events, reference.events);
            let m = &r.matrices[&SensorKind::Computation];
            for rank in 0..8 {
                for bin in 0..m.bins() {
                    let a = m.cell_raw(rank, bin).unwrap();
                    let b = m0.cell_raw(rank, bin).unwrap();
                    assert_eq!(a.0.to_bits(), b.0.to_bits(), "rank {rank} bin {bin}");
                    assert_eq!(a.1, b.1);
                }
            }
        }
    }

    #[test]
    fn streaming_fold_matches_replay_oracle() {
        let e = engine(4, 3);
        for rank in 0..4 {
            for slice in 0..600u64 {
                let avg = if rank == 2 && (200..400).contains(&slice) {
                    40
                } else {
                    10 + (slice % 3)
                };
                e.submit(rank, vec![rec(0, slice, avg)]);
            }
        }
        let end = VirtualTime::from_millis(600);
        let streamed = e.interim(end);
        let replayed = e.replay_result(end).unwrap();
        assert_eq!(streamed.events, replayed.events);
        assert_eq!(streamed.records, replayed.records);
        let sm = &streamed.matrices[&SensorKind::Computation];
        let rm = &replayed.matrices[&SensorKind::Computation];
        for rank in 0..4 {
            for bin in 0..sm.bins() {
                let (ss, sc) = sm.cell_raw(rank, bin).unwrap();
                let (rs, rc) = rm.cell_raw(rank, bin).unwrap();
                assert_eq!(sc, rc);
                assert!((ss - rs).abs() <= 1e-9 * rs.abs().max(1.0), "{ss} vs {rs}");
            }
        }
    }

    #[test]
    fn replay_requires_the_record_log() {
        let e = AnalysisServer::new(
            1,
            vec![sensor_info(0, SensorKind::Computation, true)],
            RuntimeConfig::free_probes(),
        );
        assert!(matches!(
            e.replay_result(VirtualTime::from_millis(1)),
            Err(RuntimeError::RecordLogDisabled)
        ));
    }

    #[test]
    fn detection_pass_emits_alert_mid_stream() {
        let e = engine(2, 2);
        let mut seq = [0u64, 0];
        let mut send = |rank: usize, slice: u64, avg_us: u64, t_ms: u64, e: &AnalysisServer| {
            let t = VirtualTime::from_millis(t_ms);
            let batch = TelemetryBatch::new(rank, seq[rank], t, vec![rec(0, slice, avg_us)]);
            seq[rank] += 1;
            e.ingest(batch, t).unwrap();
        };
        // Rank 1 is 3x slower throughout; arrivals advance virtual time
        // past several detect intervals (default 200 ms).
        for slice in 0..1000u64 {
            send(0, slice, 10, slice, &e);
            send(1, slice, 30, slice, &e);
        }
        let alerts = e.poll_events();
        assert!(!alerts.is_empty(), "slow rank must alert mid-run");
        let a = &alerts[0];
        assert_eq!(a.event().expect("variance alert").first_rank, 1);
        assert!(a.at < VirtualTime::from_millis(1000), "alert before end");
        assert!(e.poll_events().is_empty(), "poll drains");
        let load = e.load();
        assert!(load.detect_passes >= 1);
        assert!(load.detect_busy.as_nanos() > 0);
    }

    fn batch_at(rank: usize, seq: u64, t: VirtualTime, avg_us: u64) -> TelemetryBatch {
        TelemetryBatch::new(rank, seq, t, vec![rec(0, seq, avg_us)])
    }

    #[test]
    fn death_notice_masks_the_rank_and_alerts() {
        use crate::transport::DeathNotice;
        let e = engine(4, 2);
        let mut seqs = [0u64; 4];
        let mut send = |rank: usize, t_ms: u64, notice: Option<DeathNotice>| {
            let t = VirtualTime::from_millis(t_ms);
            let mut b = batch_at(rank, seqs[rank], t, 10);
            seqs[rank] += 1;
            b.death_notice = notice;
            e.ingest(b, t).unwrap();
        };
        for ms in 0..300 {
            for rank in 0..4 {
                if rank == 3 && ms >= 150 {
                    continue; // rank 3 dies at 150 ms
                }
                let notice = (rank == 0 && ms >= 160).then_some(DeathNotice {
                    rank: 3,
                    at: VirtualTime::from_millis(150),
                });
                send(rank, ms, notice);
            }
        }
        let dead = e.failed_ranks();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert_eq!(dead[0].rank, 3);
        assert_eq!(dead[0].at, VirtualTime::from_millis(150));
        assert_eq!(dead[0].cause, DeathCause::Notice);
        let alerts = e.poll_events();
        let deaths: Vec<_> = alerts.iter().filter_map(|a| a.death()).collect();
        assert_eq!(deaths.len(), 1, "notice is idempotent — one alert");
        let result = e.interim(VirtualTime::from_millis(300));
        assert_eq!(result.failed_ranks, dead);
        let m = &result.matrices[&SensorKind::Computation];
        let death_bin = 150 / 200; // matrix_resolution default 200 ms
        assert_eq!(m.dead_from(3), Some(death_bin));
        // Dead rank never surfaces as a variance event.
        assert!(
            result.events.iter().all(|ev| ev.first_rank != 3),
            "{:?}",
            result.events
        );
    }

    #[test]
    fn silent_rank_is_presumed_dead_then_resurrected() {
        let e = engine(2, 1);
        let mut seqs = [0u64; 2];
        let mut send = |rank: usize, t_ms: u64| {
            let t = VirtualTime::from_millis(t_ms);
            e.ingest(batch_at(rank, seqs[rank], t, 10), t).unwrap();
            seqs[rank] += 1;
        };
        // Rank 1 goes silent after 100 ms; rank 0 keeps the clock moving.
        // Default liveness horizon: 3 × 200 ms detect intervals.
        for ms in 0..1000 {
            send(0, ms);
            if ms < 100 {
                send(1, ms);
            }
        }
        let dead = e.failed_ranks();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert_eq!(dead[0].rank, 1);
        assert_eq!(dead[0].cause, DeathCause::Liveness);
        assert_eq!(dead[0].at, VirtualTime::from_millis(99));
        // The "dead" rank speaks again: the circumstantial verdict is
        // retracted.
        send(1, 1000);
        assert!(e.failed_ranks().is_empty(), "liveness deaths resurrect");
    }

    #[test]
    fn snapshot_restore_replay_is_bitwise_identical() {
        use crate::wal::{WalHeader, WriteAheadLog};
        let config = RuntimeConfig {
            shards: 2,
            keep_record_log: true,
            ..RuntimeConfig::free_probes()
        };
        let sensors = vec![sensor_info(0, SensorKind::Computation, true)];
        let header = WalHeader {
            ranks: 4,
            sensors: sensors.clone(),
            config: config.clone(),
        };
        let wal = Arc::new(WriteAheadLog::new(header));
        let live = AnalysisServer::new(4, sensors.clone(), config.clone()).into_primary(&wal);
        for ms in 0..800u64 {
            for rank in 0..4 {
                let t = VirtualTime::from_millis(ms);
                let avg = if rank == 2 { 30 } else { 10 };
                let b = TelemetryBatch::new(rank, ms, t, vec![rec(0, ms, avg)]);
                live.ingest(b, t).unwrap();
            }
        }
        assert!(wal.snapshot_entries() >= 1, "detect passes must checkpoint");
        // Crash-recover: fresh engine + last snapshot + tail replay.
        let mut recovered = AnalysisServer::new(4, sensors, config);
        let rec = wal.recovery_state();
        let (snap, tail) = (rec.snapshot, rec.tail);
        let snap = snap.expect("at least one snapshot");
        assert!(!tail.is_empty(), "some batches arrive after the snapshot");
        recovered.restore(&snap);
        for (batch, arrival) in tail {
            let _ = recovered.ingest(batch, arrival);
        }
        let end = VirtualTime::from_millis(800);
        let a = live.interim(end);
        let b = recovered.interim(end);
        assert_eq!(a.events, b.events);
        assert_eq!(a.records, b.records);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.bytes_received, b.bytes_received);
        assert_eq!(a.load.detect_passes, b.load.detect_passes);
        for kind in SensorKind::ALL {
            let (ma, mb) = (&a.matrices[&kind], &b.matrices[&kind]);
            assert_eq!(ma.bins(), mb.bins());
            for rank in 0..4 {
                for bin in 0..ma.bins() {
                    let (sa, ca) = ma.cell_raw(rank, bin).unwrap();
                    let (sb, cb) = mb.cell_raw(rank, bin).unwrap();
                    assert_eq!(sa.to_bits(), sb.to_bits(), "rank {rank} bin {bin}");
                    assert_eq!(ca, cb);
                }
            }
        }
        for rank in 0..4 {
            let (da, db) = (&a.delivery[rank], &b.delivery[rank]);
            assert_eq!(da.accepted, db.accepted);
            assert_eq!(da.gaps, db.gaps);
            assert_eq!(da.mean_latency, db.mean_latency);
        }
    }

    #[test]
    fn closed_engine_rejects_ingest() {
        let e = engine(1, 1);
        e.close();
        let batch = TelemetryBatch::new(0, 0, VirtualTime::ZERO, vec![rec(0, 0, 10)]);
        assert!(matches!(
            e.ingest(batch, VirtualTime::ZERO),
            Err(IngestError::Closed)
        ));
    }

    #[test]
    fn shard_clocks_charge_ingest_work() {
        let e = engine(4, 2);
        let t = VirtualTime::from_millis(1);
        for rank in 0..4 {
            let batch = TelemetryBatch::new(rank, 0, t, vec![rec(0, 0, 10), rec(0, 1, 10)]);
            e.ingest(batch, t).unwrap();
        }
        let load = e.load();
        assert_eq!(load.shards.len(), 2);
        for s in &load.shards {
            assert_eq!(s.batches, 2);
            assert_eq!(s.records, 4);
            assert!(s.busy.as_nanos() > 0);
            assert!(s.free_at > t);
        }
    }
}
