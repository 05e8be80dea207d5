//! The analysis server's streaming detection engine: [`AnalysisServer`]
//! itself — its state and its data path (ingest, detection passes, result
//! folds, checkpoints, the control-plane delivery calls). Construction from
//! a write-ahead log, the session handle and the result types live in
//! [`crate::server`].
//!
//! The seed's analysis server was effectively offline: it hoarded every
//! record and ran normalization, matrix construction, and event detection
//! once, in `finalize`. This module is incremental-with-eviction:
//!
//! * **One state, one lock** — paper §5.4 dedicates one process to the
//!   analysis; everything the server learns after construction is one
//!   plain, clonable [`EngineState`] behind the server's single lock. Every
//!   `&self` entry point locks once and the internals take the state by
//!   reference, so an ingest (with the detection pass it may trigger) is
//!   atomic with respect to every other call. Only the batch's CRC check —
//!   the expensive, state-free step — runs in front of the lock. The
//!   *virtual* server still models [`INGEST_WORKERS`] ingest workers:
//!   `rank % INGEST_WORKERS` picks whose busy clock and counters a batch is
//!   charged to. That is load accounting, not routing.
//! * **Incremental accumulators** — records fold into per-cell, per-group
//!   [`GroupAcc`]s instead of a record log. The trick is algebraic: the
//!   seed's cell sum is Σ min(std/avgᵢ, 1) where `std` is the group's
//!   *final* fastest record. Because `std` is the minimum over the very
//!   `avgᵢ` being normalized, the clamp never binds, so the sum decomposes
//!   into `std · Σ(1/avgᵢ) + #zeros` — and `Σ(1/avgᵢ)` is a running sum we
//!   can keep without the records. Standards may keep tightening while the
//!   run is live; the decomposition re-normalizes frozen history for free.
//! * **Bounded-memory eviction** — per rank, only the trailing
//!   [`EVICTION_LAG_BINS`] matrix bins stay "hot"; older bins freeze. Both
//!   are bin-sorted vectors of group-sorted vectors, so a checkpoint's clone
//!   is as compact as the state. Late (out-of-order) records transparently
//!   reopen and re-freeze their bin.
//! * **A detection stream** — ingest arrivals periodically trigger an
//!   incremental detection pass over provisional standards; events not seen
//!   before are emitted as timestamped [`VarianceAlert`]s *during* the run,
//!   which is the paper's actual pitch (§2: users notice variance while the
//!   program is still running).
//! * **A checkpoint is the state's clone** — [`EngineSnapshot`] wraps an
//!   [`EngineState`]; restoring one is an assignment.
//!
//! Determinism: every accumulator is fed by exactly one rank (cells and
//! sensor groups are rank-keyed), each rank's records arrive in program
//! order, standards are integer minima, and folds walk rank-major in key
//! order — so the folded matrices, summaries and counters are bit-identical
//! for any interleaving of different ranks' ingests. What follows
//! lock-acquisition order when several host threads ingest at once: alert
//! timestamps and shapes at emission, the number of detection passes, and a
//! worker clock's `free_at`.

use crate::config::RuntimeConfig;
use crate::control::{ControlDirective, ControlEpoch, Controller};
use crate::detect::{detect_events, VarianceEvent};
use crate::dynrules::Bucket;
use crate::error::{IngestError, RuntimeError};
use crate::matrix::PerformanceMatrix;
use crate::record::{SensorInfo, SensorKind, SliceRecord};
use crate::server::{DeliveryQuality, IngestStats, SensorSummary, ServerResult};
use crate::transport::TelemetryBatch;
use crate::wal::WriteAheadLog;
use cluster_sim::time::{BusyClock, Duration, VirtualTime};
use cluster_sim::trace::{self, Category, TraceEvent, SERVER_LANE};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vsensor_lang::SensorId;

/// Byte overhead charged per batch message (header / envelope).
pub(crate) const BATCH_HEADER_BYTES: u64 = 64;

/// How many matrix bins behind a rank's newest bin its hot cells are kept
/// before being frozen: enough to absorb the reordering the transport
/// produces without keeping more than a handful of hot cells per rank.
const EVICTION_LAG_BINS: u64 = 4;

/// Ingest workers the virtual server models. `rank % INGEST_WORKERS` picks
/// the worker whose busy clock and batch/record counters a batch is charged
/// to ([`IngestReceipt::shard`], [`ServerLoad::shards`], the ENGINE trace
/// lanes); it selects no lock and no data structure.
const INGEST_WORKERS: usize = 4;

/// Virtual processing cost charged to a worker's busy clock (and, at the
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
    /// so `std/avgᵢ ≤ 1` always and the clamp in
    /// [`crate::history::normalized`] never binds; zero observations
    /// normalize to exactly 1.0.
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

/// The value stored under `key` in a key-sorted vector, inserted as the
/// default when absent — the small, hash-free, compactly clonable map
/// every per-rank cell structure is built from.
fn slot<K: Ord, V: Default>(sorted: &mut Vec<(K, V)>, key: K) -> &mut V {
    let i = match sorted.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(i) => i,
        Err(i) => {
            sorted.insert(i, (key, V::default()));
            i
        }
    };
    &mut sorted[i].1
}

/// One matrix bin's accumulators, sorted by group.
type Groups = Vec<(GroupKey, GroupAcc)>;

/// One rank's matrix row under construction: hot trailing bins plus frozen
/// history, both bin-sorted. Every frozen bin is older than every hot one
/// (a bin freezes once it falls behind the eviction threshold, which only
/// rises), so the row in bin order is `frozen` followed by `hot`.
#[derive(Clone, Default)]
struct RankCells {
    /// At most `EVICTION_LAG_BINS + 1` trailing bins.
    hot: Vec<(u64, Groups)>,
    /// Evicted bins.
    frozen: Vec<(u64, Groups)>,
    /// Newest bin seen for this rank; drives eviction.
    max_bin: u64,
    /// The whole row folded per group, for the sensor summary.
    summary: Groups,
}

impl RankCells {
    fn absorb(&mut self, bin: u64, key: GroupKey, avg: Duration, lag: u64) {
        self.max_bin = self.max_bin.max(bin);
        slot(&mut self.summary, key).absorb(avg);
        slot(slot(&mut self.hot, bin), key).absorb(avg);
        let threshold = self.max_bin.saturating_sub(lag);
        let stale = self.hot.partition_point(|(b, _)| *b < threshold);
        for (b, groups) in self.hot.drain(..stale) {
            let target = slot(&mut self.frozen, b);
            for (k, acc) in groups {
                slot(target, k).merge(&acc);
            }
        }
    }

    /// Every bin holding data, oldest first.
    fn bins(&self) -> impl Iterator<Item = &(u64, Groups)> {
        self.frozen.iter().chain(&self.hot)
    }
}

/// A set of sequence numbers as sorted, disjoint, non-adjacent inclusive
/// runs `(first, last)`. In-order delivery keeps it at one run and a batch
/// lost for good costs one more, so a rank's dedup state is bounded by its
/// losses, not by its lifetime. (Inclusive rather than half-open so that
/// `u64::MAX`, which a peer can put on the wire, is representable.)
#[derive(Clone, Debug, Default)]
struct SeqSet(Vec<(u64, u64)>);

impl SeqSet {
    /// Add `seq`; false if it was already present.
    fn insert(&mut self, seq: u64) -> bool {
        let runs = &mut self.0;
        // Runs before `i` start at or below `seq`; runs from `i` on lie
        // strictly above it.
        let i = runs.partition_point(|&(first, _)| first <= seq);
        if i > 0 && seq <= runs[i - 1].1 {
            return false;
        }
        let joins_prev = i > 0 && runs[i - 1].1 + 1 == seq;
        let joins_next = i < runs.len() && seq + 1 == runs[i].0;
        match (joins_prev, joins_next) {
            (true, true) => {
                runs[i - 1].1 = runs[i].1;
                runs.remove(i);
            }
            (true, false) => runs[i - 1].1 = seq,
            (false, true) => runs[i].0 = seq,
            (false, false) => runs.insert(i, (seq, seq)),
        }
        true
    }

    /// How many sequence numbers the set holds.
    fn len(&self) -> u64 {
        self.0.iter().map(|&(first, last)| last - first + 1).sum()
    }
}

/// Per-rank state for the fault-tolerant ingest path.
#[derive(Clone, Default)]
struct RankDelivery {
    /// Sequence numbers accepted so far (dedup + gap detection).
    seen: SeqSet,
    accepted: u64,
    duplicates: u64,
    corrupt: u64,
    out_of_order: u64,
    max_seq: Option<u64>,
    /// Sum of (arrival − sent) over accepted batches, for mean latency.
    latency_total: Duration,
}

/// Accounting for one modelled ingest worker.
#[derive(Clone, Copy, Default)]
struct Worker {
    /// Virtual queueing clock modelling this worker's processing cost.
    clock: BusyClock,
    batches: u64,
    records: u64,
}

/// Receipt for one accepted (or deduplicated) batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Sending rank.
    pub rank: usize,
    /// Batch sequence number.
    pub seq: u64,
    /// Modelled ingest worker (`rank % 4`) the batch was charged to.
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
}

impl std::fmt::Display for VarianceAlert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            AlertKind::Variance(e) => write!(f, "t={} pass {}: {}", self.at, self.pass, e),
            AlertKind::RankDeath(d) => write!(f, "t={} pass {}: {}", self.at, self.pass, d),
        }
    }
}

/// Server-side processing load, from the modelled workers' busy clocks.
#[derive(Clone, Debug, Default)]
pub struct ServerLoad {
    /// Load per modelled ingest worker, indexed by worker.
    pub shards: Vec<ShardLoad>,
    /// Incremental detection passes run.
    pub detect_passes: u64,
    /// Virtual time spent in detection passes.
    pub detect_busy: Duration,
}

/// Load of one modelled ingest worker.
#[derive(Clone, Debug)]
pub struct ShardLoad {
    /// Worker index.
    pub shard: usize,
    /// Batches charged to this worker.
    pub batches: u64,
    /// Records charged to this worker.
    pub records: u64,
    /// Virtual time spent processing.
    pub busy: Duration,
    /// Virtual instant the worker's queue drained.
    pub free_at: VirtualTime,
}

impl ServerLoad {
    /// Total busy time across workers and detection.
    pub fn total_busy(&self) -> Duration {
        self.shards.iter().map(|s| s.busy).sum::<Duration>() + self.detect_busy
    }

    /// Utilization of the busiest worker over a run length — the ingest
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

/// Everything an [`AnalysisServer`] learns after construction — plain,
/// clonable data behind the server's one lock. A checkpoint is a clone of
/// this value and recovery assigns one back.
#[derive(Clone)]
pub(crate) struct EngineState {
    /// Fastest record per (sensor, bucket) for process-invariant sensors.
    global_std: BTreeMap<GroupKey, Duration>,
    /// Fastest record per (sensor, bucket, rank) for rank-dependent sensors.
    local_std: BTreeMap<(SensorId, Bucket, usize), Duration>,
    /// Matrix rows (and their per-group summary folds), indexed by rank.
    cells: Vec<RankCells>,
    /// Delivery bookkeeping, indexed by rank.
    delivery: Vec<RankDelivery>,
    workers: [Worker; INGEST_WORKERS],
    bytes: u64,
    batches: u64,
    records: u64,
    malformed: u64,
    closed: bool,
    /// Virtual arrival time of the next scheduled detection pass (ns).
    next_detect: u64,
    detect_passes: u64,
    detect_clock: BusyClock,
    /// Alerts emitted but not yet polled.
    pending: Vec<VarianceAlert>,
    /// Every event ever alerted, for overlap dedup.
    emitted: Vec<VarianceEvent>,
    /// Latest batch arrival per rank (`None` = never heard from).
    last_arrival: Vec<Option<VirtualTime>>,
    /// Fail-stop beliefs per rank: `(death instant, how we found out)`.
    deaths: Vec<Option<(VirtualTime, DeathCause)>>,
    /// Budget/escalation controller, present when the control plane is
    /// enabled.
    control: Option<Controller>,
}

impl EngineState {
    fn stats(&self) -> IngestStats {
        IngestStats {
            bytes_received: self.bytes,
            batches: self.batches,
            records: self.records,
            malformed: self.malformed,
        }
    }

    fn load(&self) -> ServerLoad {
        ServerLoad {
            shards: self
                .workers
                .iter()
                .enumerate()
                .map(|(shard, w)| ShardLoad {
                    shard,
                    batches: w.batches,
                    records: w.records,
                    busy: w.clock.busy_time(),
                    free_at: w.clock.free_at(),
                })
                .collect(),
            detect_passes: self.detect_passes,
            detect_busy: self.detect_clock.busy_time(),
        }
    }

    fn failed_ranks(&self) -> Vec<DeathRecord> {
        self.deaths
            .iter()
            .enumerate()
            .filter_map(|(rank, d)| d.map(|(at, cause)| DeathRecord { rank, at, cause }))
            .collect()
    }
}

/// The shared analysis server (§5.4): the streaming engine that owns the
/// accumulators, the detection stream, the write-ahead log handle and the
/// budget controller. Ranks obtain an [`IngestSession`] (or reuse one — it
/// is `Sync` and borrows the server) and stream batches in; closing the
/// session yields the final [`ServerResult`].
///
/// [`IngestSession`]: crate::server::IngestSession
pub struct AnalysisServer {
    config: RuntimeConfig,
    sensors: Vec<SensorInfo>,
    ranks: usize,
    /// The one lock. Internals take the guarded state by reference and
    /// never call a locking entry point.
    state: Mutex<EngineState>,
    /// In-memory write-ahead log, when durability is enabled.
    wal: Option<Arc<WriteAheadLog>>,
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
        let state = EngineState {
            global_std: BTreeMap::new(),
            local_std: BTreeMap::new(),
            cells: vec![RankCells::default(); ranks],
            delivery: vec![RankDelivery::default(); ranks],
            workers: [Worker::default(); INGEST_WORKERS],
            bytes: 0,
            batches: 0,
            records: 0,
            malformed: 0,
            closed: false,
            next_detect: config.detect_interval.as_nanos(),
            detect_passes: 0,
            detect_clock: BusyClock::new(),
            pending: Vec::new(),
            emitted: Vec::new(),
            last_arrival: vec![None; ranks],
            deaths: vec![None; ranks],
            control: config
                .control_enabled()
                .then(|| Controller::new(config.clone(), ranks, sensors.len())),
        };
        Ok(AnalysisServer {
            config,
            sensors,
            ranks,
            state: Mutex::new(state),
            wal: None,
        })
    }

    /// Attach the write-ahead log — promote a caught-up replica, or make a
    /// fresh server durable: every batch accepted from now on is journaled
    /// before it mutates the state (under the state lock, so log order is
    /// processing order), and detection passes append checkpoints. Takes
    /// the server by value, so it happens before the server is shared.
    pub(crate) fn into_primary(mut self, wal: &Arc<WriteAheadLog>) -> Self {
        self.wal = Some(wal.clone());
        self
    }

    /// The write-ahead log this server journals to, if it is durable.
    pub(crate) fn wal(&self) -> Option<&Arc<WriteAheadLog>> {
        self.wal.as_ref()
    }

    /// The configuration the server runs under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of ranks this server was built for.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The sensor table this server was built for.
    pub(crate) fn sensors(&self) -> &[SensorInfo] {
        &self.sensors
    }

    /// Seal the server against further ingest.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
    }

    /// The standard `rank`'s records of `(sensor, bucket)` normalize
    /// against — the fastest such record so far: across all ranks for a
    /// process-invariant sensor, the rank's own otherwise.
    fn standard(
        &self,
        st: &EngineState,
        sensor: SensorId,
        bucket: Bucket,
        rank: usize,
    ) -> Option<Duration> {
        if self.sensors[sensor.0 as usize].process_invariant {
            st.global_std.get(&(sensor, bucket)).copied()
        } else {
            st.local_std.get(&(sensor, bucket, rank)).copied()
        }
    }

    /// `(Σ normalized, records)` per `key_of(sensor, bucket)`, folded from
    /// every rank's summary accumulators against current standards — in
    /// (sensor, bucket, rank) order, which fixes the float sums.
    fn summarize<K: Ord>(
        &self,
        st: &EngineState,
        key_of: impl Fn(SensorId, Bucket) -> K,
    ) -> BTreeMap<K, (f64, u64)> {
        let mut accs = Vec::new();
        for (rank, cells) in st.cells.iter().enumerate() {
            for &((sensor, bucket), acc) in &cells.summary {
                accs.push((sensor, bucket, rank, acc));
            }
        }
        accs.sort_unstable_by_key(|&(sensor, bucket, rank, _)| (sensor, bucket, rank));
        let mut out: BTreeMap<K, (f64, u64)> = BTreeMap::new();
        for (sensor, bucket, rank, acc) in accs {
            let Some(std) = self.standard(st, sensor, bucket, rank) else {
                continue;
            };
            let (sum, count) = acc.fold(std);
            let e = out.entry(key_of(sensor, bucket)).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += count as u64;
        }
        out
    }

    /// Running ingest counters.
    pub fn stats(&self) -> IngestStats {
        self.state.lock().stats()
    }

    /// Fold one record into the standards, cells, and summary
    /// accumulators. Returns false (and counts malformed) for records
    /// naming unknown sensors — a corrupted or hostile batch must never
    /// take the server down.
    fn absorb_record(&self, st: &mut EngineState, rank: usize, rec: SliceRecord) -> bool {
        let Some(info) = self.sensors.get(rec.sensor.0 as usize) else {
            st.malformed += 1;
            return false;
        };
        let key = (rec.sensor, rec.bucket);
        let std = if info.process_invariant {
            st.global_std.entry(key).or_insert(rec.avg)
        } else {
            st.local_std
                .entry((rec.sensor, rec.bucket, rank))
                .or_insert(rec.avg)
        };
        *std = (*std).min(rec.avg);
        let bin = rec.slice / self.config.slices_per_bin();
        if let Some(cells) = st.cells.get_mut(rank) {
            cells.absorb(bin, key, rec.avg, EVICTION_LAG_BINS);
        }
        true
    }

    /// Sequence-numbered streaming ingest: verify, journal, dedup, absorb,
    /// charge the modelled worker's virtual clock, and maybe run a
    /// detection pass. The public door is
    /// [`crate::server::IngestSession::ingest`].
    pub(crate) fn ingest(
        &self,
        batch: &TelemetryBatch,
        arrival: VirtualTime,
    ) -> Result<IngestReceipt, IngestError> {
        // The CRC pass reads no engine state: it runs in front of the
        // lock, so ingests from several host threads still overlap there.
        // It stays even though every in-process sender has just stamped
        // the batch: a damaged copy (a `FaultPlan` corruption die, or such
        // a copy the WAL logged and a standby replays) is rejected here
        // and nowhere else, and counted per rank. With the table fold it
        // costs what the stamp costs, a fraction of the absorb loop below.
        let intact = batch.verify();
        let st = &mut *self.state.lock();
        if st.closed {
            return Err(IngestError::Closed);
        }
        // Write-ahead: log every arriving batch (malformed and corrupt
        // ones included — their counters must replay too) before touching
        // engine state. The state lock is held, so the log order is
        // exactly the processing order.
        if let Some(wal) = &self.wal {
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
        }
        if batch.rank >= self.ranks {
            st.malformed += 1;
            return Err(IngestError::Malformed {
                rank: batch.rank,
                ranks: self.ranks,
            });
        }
        let rank = batch.rank;
        // The rank was heard from. A liveness-timeout death verdict is
        // circumstantial — hearing from the rank again retracts it (gossip
        // notices are sticky).
        st.last_arrival[rank] = st.last_arrival[rank].max(Some(arrival));
        if matches!(st.deaths[rank], Some((_, DeathCause::Liveness))) {
            st.deaths[rank] = None;
        }
        // Gossip rides outside the CRC; process it for corrupt copies and
        // duplicates too — `note_death` is idempotent, which is what makes
        // repeating the notice on every batch loss-tolerant.
        if let Some(notice) = batch.death_notice {
            if notice.rank < self.ranks {
                self.note_death(st, notice.rank, notice.at, DeathCause::Notice, arrival);
            }
        }
        let shard = rank % INGEST_WORKERS;
        let d = &mut st.delivery[rank];
        if !intact {
            d.corrupt += 1;
            return Err(IngestError::Corrupt {
                rank,
                seq: batch.seq,
            });
        }
        if !d.seen.insert(batch.seq) {
            d.duplicates += 1;
            return Ok(IngestReceipt {
                rank,
                seq: batch.seq,
                shard,
                records: 0,
                bytes: 0,
                duplicate: true,
            });
        }
        d.accepted += 1;
        if d.max_seq.is_some_and(|max| batch.seq < max) {
            d.out_of_order += 1; // a late batch overtaken in flight
        }
        d.max_seq = d.max_seq.max(Some(batch.seq));
        d.latency_total += arrival.since(batch.sent_at);
        // The controller's cost accounting shares the ingest's atomicity:
        // a batch is either fully before or fully after any decision pass,
        // exactly like the matrix accumulators — which is what keeps
        // streaming and WAL-replay decisions identical.
        if let Some(ctl) = &mut st.control {
            ctl.observe_batch(rank, &batch.records);
        }
        let bytes = BATCH_HEADER_BYTES + batch.records.len() as u64 * SliceRecord::WIRE_BYTES;
        let mut absorbed = 0u64;
        for &rec in &batch.records {
            if self.absorb_record(st, rank, rec) {
                absorbed += 1;
            }
        }
        st.bytes += bytes;
        st.batches += 1;
        st.records += absorbed;
        let ingest_cost = Duration::from_nanos(SERVER_RECORD_COST.as_nanos() * absorbed);
        let worker = &mut st.workers[shard];
        worker.batches += 1;
        worker.records += absorbed;
        worker.clock.charge(arrival, ingest_cost);
        if trace::enabled(Category::ENGINE) {
            trace::record(TraceEvent::complete(
                Category::ENGINE,
                "ingest",
                SERVER_LANE,
                shard as u32,
                arrival.as_nanos(),
                ingest_cost.as_nanos(),
                rank as u64,
                absorbed,
            ));
        }
        // Run a detection pass if this arrival crossed the schedule.
        if arrival.as_nanos() >= st.next_detect {
            st.next_detect = arrival.as_nanos() + self.config.detect_interval.as_nanos().max(1);
            self.run_detect_pass(st, arrival);
        }
        Ok(IngestReceipt {
            rank,
            seq: batch.seq,
            shard,
            records: absorbed as usize,
            bytes,
            duplicate: false,
        })
    }

    /// Record a rank death, idempotently: repeated identical evidence is a
    /// no-op, earlier death instants win within a cause, and an
    /// authoritative gossip notice upgrades a circumstantial liveness
    /// verdict. Fresh verdicts emit a [`AlertKind::RankDeath`] alert.
    fn note_death(
        &self,
        st: &mut EngineState,
        rank: usize,
        at: VirtualTime,
        cause: DeathCause,
        now: VirtualTime,
    ) {
        let slot = &mut st.deaths[rank];
        match *slot {
            None => {}
            Some((_, DeathCause::Liveness)) if cause == DeathCause::Notice => {}
            Some((t, c)) => {
                if c == cause && at < t {
                    *slot = Some((at, cause)); // tighten, but don't re-alert
                }
                return;
            }
        }
        *slot = Some((at, cause));
        // A dead rank's pending directive is cancelled immediately — never
        // retried forever, never counted as overhead.
        if let Some(ctl) = &mut st.control {
            ctl.cancel_dead(rank);
        }
        st.pending.push(VarianceAlert {
            at: now,
            pass: st.detect_passes,
            kind: AlertKind::RankDeath(DeathRecord { rank, at, cause }),
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
    /// presumed fail-stopped at its last-heard-from instant. (A rank never
    /// heard from is indistinguishable from a slow start.)
    fn liveness_scan(&self, st: &mut EngineState, now: VirtualTime) {
        let horizon = self
            .config
            .detect_interval
            .as_nanos()
            .saturating_mul(self.config.liveness_intervals as u64);
        for rank in 0..self.ranks {
            if let Some(last) = st.last_arrival[rank] {
                if last.as_nanos().saturating_add(horizon) <= now.as_nanos() {
                    self.note_death(st, rank, last, DeathCause::Liveness, now);
                }
            }
        }
    }

    /// Ranks the engine currently believes fail-stopped, in rank order.
    pub fn failed_ranks(&self) -> Vec<DeathRecord> {
        self.state.lock().failed_ranks()
    }

    /// One incremental detection pass: fold provisional matrices against
    /// *current* (still-tightening) standards, diff the detected events
    /// against everything already alerted, and queue the genuinely new
    /// ones.
    fn run_detect_pass(&self, st: &mut EngineState, now: VirtualTime) {
        self.liveness_scan(st, now);
        let bins = (self.config.matrix_bin(now).saturating_add(1)) as usize;
        let matrices = self.fold_matrices(st, bins);
        st.detect_passes += 1;
        let pass = st.detect_passes;
        let cells_visited = (self.ranks * bins * SensorKind::ALL.len()) as u64;
        let detect_cost = Duration::from_nanos(SERVER_DETECT_CELL_COST.as_nanos() * cells_visited);
        st.detect_clock.charge(now, detect_cost);
        if trace::enabled(Category::ENGINE) {
            trace::record(TraceEvent::complete(
                Category::ENGINE,
                "detect_pass",
                SERVER_LANE,
                INGEST_WORKERS as u32,
                now.as_nanos(),
                detect_cost.as_nanos(),
                pass,
                cells_visited,
            ));
        }
        let mut fresh_spans: Vec<(usize, usize)> = Vec::new();
        for kind in SensorKind::ALL {
            let events = detect_events(&matrices[kind], kind, self.config.variance_threshold)
                .unwrap_or_default();
            for event in events {
                let already = st.emitted.iter().any(|e| {
                    e.kind == event.kind
                        && e.first_rank <= event.last_rank
                        && event.first_rank <= e.last_rank
                        && e.start_bin < event.end_bin
                        && event.start_bin < e.end_bin
                });
                if !already {
                    fresh_spans.push((event.first_rank, event.last_rank));
                    st.emitted.push(event.clone());
                    st.pending.push(VarianceAlert {
                        at: now,
                        pass,
                        kind: AlertKind::Variance(event),
                    });
                }
            }
        }
        // Control decisions ride the detection pass, before the checkpoint
        // below: the epoch schedule becomes a pure function of ingested
        // telemetry, so WAL replay reproduces it bitwise.
        if let Some(ctl) = &mut st.control {
            let deaths = &st.deaths;
            ctl.decide(now, pass, &fresh_spans, |r| deaths[r].is_some());
        }
        // Pass boundaries are the durability points: with a WAL attached,
        // checkpoint the whole engine every pass so recovery replays at
        // most one interval of batches.
        if let Some(wal) = &self.wal {
            wal.append_snapshot(EngineSnapshot(st.clone()));
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
        std::mem::take(&mut self.state.lock().pending)
    }

    /// Fold the accumulators into per-kind matrices, rank-major and
    /// group-key-ordered, so the float sums are reproducible. Dead ranks
    /// are mask-marked from their death bin onward.
    fn fold_matrices(&self, st: &EngineState, bins: usize) -> KindMap<PerformanceMatrix> {
        let mut matrices = KindMap::build(|_| {
            PerformanceMatrix::new(self.ranks, bins, self.config.matrix_bin_width())
        });
        for (rank, cells) in st.cells.iter().enumerate() {
            for (bin, groups) in cells.bins() {
                for &((sensor, bucket), acc) in groups {
                    let Some(std) = self.standard(st, sensor, bucket, rank) else {
                        continue;
                    };
                    let (sum, count) = acc.fold(std);
                    let kind = self.sensors[sensor.0 as usize].kind;
                    matrices[kind].add_aggregate(rank, *bin, sum, count);
                }
            }
        }
        self.mask_dead(st, &mut matrices);
        matrices
    }

    /// Mark every believed-dead rank's cells as dead from its death bin
    /// onward, in all three matrices — detection then skips them, so a
    /// killed rank can never read as 0%-performance variance.
    fn mask_dead(&self, st: &EngineState, matrices: &mut KindMap<PerformanceMatrix>) {
        for (rank, death) in st.deaths.iter().enumerate() {
            if let Some((at, _)) = death {
                let bin = self.config.matrix_bin(*at);
                for kind in SensorKind::ALL {
                    matrices[kind].mark_dead(rank, bin);
                }
            }
        }
    }

    /// Build the full result over `[0, up_to)` from the accumulators:
    /// fold the matrices, detect and order the events, order the sensor
    /// summary worst first, and attach the state's delivery, volume, load,
    /// death and control views. Non-destructive, callable while
    /// ranks are still streaming: §2's workflow updates the report
    /// *periodically while the program runs* — this is that read, and the
    /// close-time read too.
    pub fn interim(&self, up_to: VirtualTime) -> ServerResult {
        let st = &*self.state.lock();
        let bins = (self.config.matrix_bin(up_to).saturating_add(1)) as usize;
        let matrices = self.fold_matrices(st, bins);
        // (A server built for zero ranks has empty matrices: no events.)
        let mut events = Vec::new();
        for kind in SensorKind::ALL {
            events.extend(
                detect_events(&matrices[kind], kind, self.config.variance_threshold)
                    .unwrap_or_default(),
            );
        }
        events.sort_by(|a, b| {
            (a.start_bin, a.first_rank, a.kind).cmp(&(b.start_bin, b.first_rank, b.kind))
        });
        let mut sensor_summary: Vec<SensorSummary> = self
            .summarize(st, |sensor, _| sensor)
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
        let stats = st.stats();
        ServerResult {
            matrices: matrices.into_hash_map(),
            events,
            sensor_summary,
            bytes_received: stats.bytes_received,
            batches: stats.batches,
            records: st.records as usize,
            delivery: st
                .delivery
                .iter()
                .enumerate()
                .map(|(rank, d)| delivery_quality(rank, d))
                .collect(),
            malformed_records: stats.malformed,
            load: st.load(),
            failed_ranks: st.failed_ranks(),
            control: st.control.as_ref().map(Controller::stats),
        }
    }

    /// Server-side processing load (worker busy clocks, detection cost).
    pub fn load(&self) -> ServerLoad {
        self.state.lock().load()
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore — the durability half of the WAL design.
    // ------------------------------------------------------------------

    /// Take a checkpoint outside a detection pass — test-only convenience.
    #[cfg(test)]
    pub(crate) fn snapshot_for_tests(&self) -> EngineSnapshot {
        EngineSnapshot(self.state.lock().clone())
    }

    /// Replace the engine's mutable state with a checkpoint's. Requires
    /// exclusive ownership (recovery happens before the engine is shared);
    /// the checkpoint must come from a server built from the same ranks,
    /// sensors and configuration — the WAL header guarantees that.
    pub(crate) fn restore(&mut self, snap: EngineSnapshot) {
        *self.state.get_mut() = snap.0;
    }

    // ------------------------------------------------------------------
    // Control plane (present when `RuntimeConfig::control_enabled`) —
    // channel-facing delivery calls; each is a no-op returning nothing
    // when the control plane is off.
    // ------------------------------------------------------------------

    /// Run `f` on the controller under the state lock, if there is one.
    fn with_control<T>(&self, f: impl FnOnce(&mut Controller) -> T) -> Option<T> {
        self.state.lock().control.as_mut().map(f)
    }

    /// Begin one delivery attempt of `rank`'s pending control directive,
    /// if one is due at `now`. Returns the directive and the attempt
    /// number (1-based, feeds the fault dice).
    pub(crate) fn control_begin_attempt(
        &self,
        rank: usize,
        now: VirtualTime,
    ) -> Option<(ControlDirective, u32)> {
        self.with_control(|c| c.begin_attempt(rank, now)).flatten()
    }

    /// Record that the fault dice destroyed a begun attempt.
    pub(crate) fn control_delivery_lost(&self, rank: usize) {
        self.with_control(|c| c.delivery_lost(rank));
    }

    /// Record that the fault dice delayed a begun attempt until `until`.
    pub(crate) fn control_delay(&self, rank: usize, until: VirtualTime) {
        self.with_control(|c| c.delay_delivery(rank, until));
    }

    /// Record that `rank` acknowledged every epoch up to `epoch`.
    pub(crate) fn control_ack(&self, rank: usize, epoch: u64) {
        self.with_control(|c| c.ack(rank, epoch));
    }

    /// The issued-epoch log in decision order — what the crash-recovery
    /// contract compares bitwise across a server crash.
    pub fn control_schedule(&self) -> Vec<ControlEpoch> {
        self.with_control(|c| c.schedule()).unwrap_or_default()
    }

    /// The controller's per-rank cumulative instrumentation-cost model,
    /// in nanoseconds (`None` when the control plane is off).
    pub fn control_costs(&self) -> Option<Vec<u64>> {
        self.with_control(|c| c.observed_costs())
    }
}

fn delivery_quality(rank: usize, d: &RankDelivery) -> DeliveryQuality {
    let expected = d.max_seq.map_or(0, |m| m + 1);
    let gaps = expected.saturating_sub(d.seen.len());
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

/// A checkpoint of an [`AnalysisServer`]: its whole [`EngineState`], cloned
/// at a detect-pass boundary. [`AnalysisServer::restore`] + replay of the
/// WAL tail after it reproduces the live engine bit-for-bit.
#[derive(Clone)]
pub(crate) struct EngineSnapshot(EngineState);

impl EngineSnapshot {
    /// Order-sensitive digest of the checkpoint's counters and shapes, used
    /// by the WAL to CRC-frame snapshot entries. Not a full content hash —
    /// it covers every counter that replay equivalence depends on (volume
    /// and per-worker counters, clocks, the detection schedule, per-rank
    /// last arrivals, collection sizes, the controller's decision state),
    /// which is enough to catch a torn or bit-flipped frame in simulation,
    /// and it is cheap: every reader that consumes the frame recomputes it.
    pub(crate) fn fingerprint(&self) -> u64 {
        let s = &self.0;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        fold(s.bytes);
        fold(s.batches);
        fold(s.records);
        fold(s.malformed);
        fold(s.next_detect);
        fold(s.detect_passes);
        fold(s.detect_clock.free_at().as_nanos());
        fold(s.detect_clock.busy_time().as_nanos());
        fold(s.pending.len() as u64);
        fold(s.emitted.len() as u64);
        fold(s.deaths.iter().flatten().count() as u64);
        for a in &s.last_arrival {
            fold(a.map_or(0, |t| t.as_nanos() + 1));
        }
        for w in &s.workers {
            fold(w.batches);
            fold(w.records);
            fold(w.clock.free_at().as_nanos());
            fold(w.clock.busy_time().as_nanos());
        }
        fold(s.global_std.len() as u64);
        fold(s.local_std.len() as u64);
        fold(s.cells.len() as u64);
        fold(s.delivery.len() as u64);
        // `None` folds nothing, so control-off checkpoints digest the same
        // with or without the control plane compiled in.
        if let Some(c) = &s.control {
            c.fold_fingerprint(&mut fold);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::normalized;
    use proptest::prelude::*;

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

    fn engine(ranks: usize) -> AnalysisServer {
        AnalysisServer::try_new(
            ranks,
            vec![sensor_info(0, SensorKind::Computation, true)],
            RuntimeConfig::default(),
        )
        .expect("valid config")
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
        let bins: Vec<_> = cells.bins().collect();
        assert_eq!(bins.len(), 100);
        assert!(bins.windows(2).all(|w| w[0].0 < w[1].0), "bin order");
        let (bin, groups) = bins[3];
        assert_eq!(
            (*bin, groups.len(), groups[0].0, groups[0].1.count),
            (3, 1, key, 2)
        );
    }

    #[test]
    fn detection_pass_emits_alert_mid_stream() {
        let e = engine(2);
        let mut seq = [0u64, 0];
        let mut send = |rank: usize, slice: u64, avg_us: u64, t_ms: u64, e: &AnalysisServer| {
            let t = VirtualTime::from_millis(t_ms);
            let batch = TelemetryBatch::new(rank, seq[rank], t, vec![rec(0, slice, avg_us)]);
            seq[rank] += 1;
            e.ingest(&batch, t).unwrap();
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

    #[test]
    fn every_record_lands_in_the_column_of_its_slice() {
        // Resolutions that are not a whole number of 1 ms slices: 1.5 ms
        // rounds down to one slice per column, and 0.5 ms up to one. One
        // record per slice, slices 0..30, each in a column of its own.
        for resolution_us in [1500, 500] {
            let config = RuntimeConfig {
                matrix_resolution: Duration::from_micros(resolution_us),
                ..RuntimeConfig::default()
            };
            let e = AnalysisServer::try_new(
                1,
                vec![sensor_info(0, SensorKind::Computation, true)],
                config.clone(),
            )
            .expect("valid config");
            for slice in 0..30u64 {
                let t = VirtualTime::from_millis(slice);
                let batch = TelemetryBatch::new(0, slice, t, vec![rec(0, slice, 10)]);
                e.ingest(&batch, t).unwrap();
            }
            let result = e.interim(VirtualTime::from_millis(30));
            let m = result.matrix(SensorKind::Computation).unwrap();
            assert_eq!(m.resolution(), config.matrix_bin_width());
            let mut placed = 0;
            for slice in 0..30u64 {
                let bin = config.matrix_bin(VirtualTime::from_millis(slice)) as usize;
                let (_, count) = m.cell_raw(0, bin).expect("column inside the matrix");
                assert_eq!(count, 1, "slice {slice} at {resolution_us} us");
                placed += count;
            }
            let total: u32 = (0..m.bins())
                .filter_map(|b| m.cell_raw(0, b))
                .map(|c| c.1)
                .sum();
            assert_eq!((placed, total), (30, 30), "at {resolution_us} us");
        }
    }

    fn batch_at(rank: usize, seq: u64, t: VirtualTime, avg_us: u64) -> TelemetryBatch {
        TelemetryBatch::new(rank, seq, t, vec![rec(0, seq, avg_us)])
    }

    #[test]
    fn death_notice_masks_the_rank_and_alerts() {
        use crate::transport::DeathNotice;
        let e = engine(4);
        let mut seqs = [0u64; 4];
        let mut send = |rank: usize, t_ms: u64, notice: Option<DeathNotice>| {
            let t = VirtualTime::from_millis(t_ms);
            let mut b = batch_at(rank, seqs[rank], t, 10);
            seqs[rank] += 1;
            b.death_notice = notice;
            e.ingest(&b, t).unwrap();
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
        let e = engine(2);
        let mut seqs = [0u64; 2];
        let mut send = |rank: usize, t_ms: u64| {
            let t = VirtualTime::from_millis(t_ms);
            e.ingest(&batch_at(rank, seqs[rank], t, 10), t).unwrap();
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

    /// The durability tests' stream: four ranks, 800 ms, control plane on
    /// with a batch interval short enough that the budget acts (two
    /// sensors, so one may go dark) on top of the escalation the slow
    /// rank's alert triggers; one rank death gossiped by a peer, one late
    /// batch and one duplicate.
    fn durable_stream() -> (
        Vec<SensorInfo>,
        RuntimeConfig,
        Vec<(TelemetryBatch, VirtualTime)>,
    ) {
        use crate::transport::DeathNotice;
        let config = RuntimeConfig {
            overhead_budget: 0.02,
            batch_interval: Duration::from_micros(100),
            ..RuntimeConfig::default()
        };
        let sensors = vec![
            sensor_info(0, SensorKind::Computation, true),
            sensor_info(1, SensorKind::Network, false),
        ];
        let batch = |rank: usize, seq: u64| {
            let avg = if rank == 2 { 30 } else { 10 };
            let sent = VirtualTime::from_millis(seq);
            TelemetryBatch::new(rank, seq, sent, vec![rec(0, seq, avg), rec(1, seq, avg)])
        };
        let mut stream = Vec::new();
        for ms in 0..800u64 {
            let t = VirtualTime::from_millis(ms);
            for rank in 0..4 {
                if rank == 3 && ms >= 400 {
                    continue; // rank 3 dies at 400 ms...
                }
                if (rank, ms) == (1, 200) {
                    continue; // ...rank 1's batch 200 is overtaken in flight...
                }
                let mut b = batch(rank, ms);
                if rank == 0 && ms >= 410 {
                    // ...and rank 0 gossips the death from 410 ms on.
                    b.death_notice = Some(DeathNotice {
                        rank: 3,
                        at: VirtualTime::from_millis(400),
                    });
                }
                stream.push((b, t));
            }
            if ms == 205 {
                stream.push((batch(1, 200), t)); // late
                stream.push((batch(1, 100), t)); // duplicate
            }
        }
        (sensors, config, stream)
    }

    /// Every externally visible bit of two four-rank engines agrees.
    fn assert_bitwise_equal(a: &AnalysisServer, b: &AnalysisServer, end: VirtualTime) {
        assert_eq!(
            a.snapshot_for_tests().fingerprint(),
            b.snapshot_for_tests().fingerprint()
        );
        assert_eq!(a.control_schedule(), b.control_schedule());
        let (a, b) = (a.interim(end), b.interim(end));
        assert_eq!(a.events, b.events);
        assert_eq!(a.records, b.records);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.bytes_received, b.bytes_received);
        assert_eq!(a.load.detect_passes, b.load.detect_passes);
        assert_eq!(a.failed_ranks, b.failed_ranks);
        assert_eq!(a.control, b.control);
        for kind in SensorKind::ALL {
            let (ma, mb) = (&a.matrices[&kind], &b.matrices[&kind]);
            assert_eq!(ma.bins(), mb.bins());
            for rank in 0..4 {
                for bin in 0..ma.bins() {
                    let ca = ma.cell_raw(rank, bin).map(|(s, n)| (s.to_bits(), n));
                    let cb = mb.cell_raw(rank, bin).map(|(s, n)| (s.to_bits(), n));
                    assert_eq!(ca, cb, "{kind:?} rank {rank} bin {bin}");
                }
            }
        }
        for rank in 0..4 {
            let (da, db) = (&a.delivery[rank], &b.delivery[rank]);
            assert_eq!(da.accepted, db.accepted);
            assert_eq!(da.gaps, db.gaps);
            assert_eq!(da.duplicates, db.duplicates);
            assert_eq!(da.out_of_order, db.out_of_order);
            assert_eq!(da.mean_latency, db.mean_latency);
        }
    }

    #[test]
    fn snapshot_restore_replay_is_bitwise_identical() {
        let (sensors, config, stream) = durable_stream();
        let (live, wal) =
            AnalysisServer::try_new_durable(4, sensors.clone(), config.clone()).unwrap();
        for (batch, t) in stream {
            // Rank 1's batch 200 arriving at 205 ms is late, not a duplicate.
            let duplicate = (batch.seq, t) == (100, VirtualTime::from_millis(205));
            assert_eq!(live.ingest(&batch, t).unwrap().duplicate, duplicate);
        }
        assert!(wal.snapshot_entries() >= 1, "detect passes must checkpoint");
        // Crash-recover: fresh engine + last snapshot + tail replay.
        let rec = wal.read_from(0);
        assert!(rec.snapshot.is_some(), "at least one snapshot");
        assert!(
            !rec.tail.is_empty(),
            "some batches arrive after the snapshot"
        );
        let mut recovered = AnalysisServer::try_new(4, sensors, config).expect("valid config");
        assert_eq!(recovered.catch_up(&wal, 0), wal.frames());
        assert!(
            !live.control_schedule().is_empty(),
            "the controller must have acted"
        );
        let end = VirtualTime::from_millis(800);
        assert_bitwise_equal(&live, &recovered, end);
        let result = live.interim(end);
        assert_eq!(result.failed_ranks.len(), 1, "{:?}", result.failed_ranks);
        let d = &result.delivery[1];
        assert_eq!((d.duplicates, d.out_of_order, d.gaps), (1, 1, 0));
    }

    #[test]
    fn recovery_at_every_crash_index_matches_the_undisturbed_run() {
        // A crash after any ingest `k` recovers to the engine a plain
        // server reaches on the first `k` batches — including the ingest
        // that lands first behind each checkpoint and truncates the log.
        let (sensors, mut config, stream) = durable_stream();
        config.detect_interval = Duration::from_millis(100);
        let (durable, wal) =
            AnalysisServer::try_new_durable(4, sensors.clone(), config.clone()).unwrap();
        let plain = AnalysisServer::try_new(4, sensors, config).expect("valid config");
        for (batch, t) in stream {
            durable.ingest(&batch, t).unwrap();
            plain.ingest(&batch, t).unwrap();
            let recovered = AnalysisServer::recover(&wal).unwrap();
            assert_bitwise_equal(&plain, &recovered, t + Duration::from_millis(1));
        }
        assert!(wal.snapshot_entries() >= 5, "{}", wal.snapshot_entries());
    }

    #[test]
    fn closed_engine_rejects_ingest() {
        let e = engine(1);
        e.close();
        let batch = TelemetryBatch::new(0, 0, VirtualTime::ZERO, vec![rec(0, 0, 10)]);
        assert!(matches!(
            e.ingest(&batch, VirtualTime::ZERO),
            Err(IngestError::Closed)
        ));
    }

    #[test]
    fn shard_clocks_charge_ingest_work() {
        // Eight ranks over the four modelled workers: two batches each.
        let e = engine(8);
        let t = VirtualTime::from_millis(1);
        for rank in 0..8 {
            let batch = TelemetryBatch::new(rank, 0, t, vec![rec(0, 0, 10), rec(0, 1, 10)]);
            assert_eq!(e.ingest(&batch, t).unwrap().shard, rank % INGEST_WORKERS);
        }
        let load = e.load();
        assert_eq!(load.shards.len(), INGEST_WORKERS);
        for (i, s) in load.shards.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert_eq!(s.batches, 2);
            assert_eq!(s.records, 4);
            assert_eq!(s.busy, Duration(4 * SERVER_RECORD_COST.as_nanos()));
            // Both batches arrive at `t`: the second queues behind the first.
            assert_eq!(s.free_at, t + s.busy);
        }
    }

    /// Sorted, disjoint, non-adjacent, non-empty runs.
    fn runs_are_canonical(set: &SeqSet) -> bool {
        set.0.iter().all(|&(first, last)| first <= last)
            && set
                .0
                .windows(2)
                .all(|w| w[0].1 < w[1].0 && w[0].1 + 1 < w[1].0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Draws from a small domain arrive shuffled, repeat (duplicates)
        /// and never cover it (permanent gaps); the top-of-range base puts
        /// `u64::MAX` itself on the wire.
        #[test]
        fn seq_set_matches_a_hash_set(
            top in 0u8..2,
            seqs in proptest::collection::vec(0u64..48, 0..160),
        ) {
            let base = if top == 1 { u64::MAX - 47 } else { 0 };
            let mut set = SeqSet::default();
            let mut oracle = std::collections::HashSet::new();
            for s in seqs {
                let seq = base + s;
                prop_assert_eq!(set.insert(seq), oracle.insert(seq));
                prop_assert_eq!(set.len(), oracle.len() as u64);
                prop_assert!(runs_are_canonical(&set), "{:?}", set);
            }
            // One run per maximal block of consecutive numbers: in-order
            // delivery is one run, each batch lost for good costs one more.
            let blocks = oracle
                .iter()
                .filter(|&&s| s == 0 || !oracle.contains(&(s - 1)))
                .count();
            prop_assert_eq!(set.0.len(), blocks);
        }
    }
}
