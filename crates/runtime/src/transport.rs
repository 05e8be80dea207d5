//! Fault-tolerant telemetry transport: rank → analysis server.
//!
//! §5.4 has every rank periodically flush its slice records to a dedicated
//! analysis process. The seed implementation modelled that flush as an
//! infallible method call; this module replaces it with a transport that
//! survives the failures a real fabric produces (see
//! [`cluster_sim::fault`]): batches are sequence-numbered and CRC-stamped,
//! sends go through a fallible [`BatchChannel`], unacknowledged batches are
//! retried with exponential backoff under a bounded budget, and
//! backpressure drops the *oldest* buffered batch — losing stale telemetry
//! is strictly better than blocking an MPI rank or growing without bound.
//!
//! Everything is charged to the virtual clock: each transmission attempt
//! costs [`SEND_COST`], and retry scheduling runs on
//! virtual timestamps, so fault injection perturbs the simulated run
//! exactly as a real lossy network would perturb a real one — while the
//! whole simulation stays deterministic.

use crate::config::RuntimeConfig;
use crate::control::{ControlDirective, CONTROL_SEQ_BASE};
use crate::crc::Crc32;
use crate::engine::{AnalysisServer, IngestReceipt};
use crate::error::IngestError;
use crate::record::SliceRecord;
use crate::service::{AnalysisService, TenantChannel, TenantId};
use cluster_sim::fault::{FaultPlan, SendFate};
use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::trace::{self, Category, TraceEvent};
use std::collections::VecDeque;
use std::sync::Arc;

/// Record a transport-category instant on `lane`. Pure observation: the
/// virtual clock and the transport's behaviour are unaffected. The lane is
/// the sending rank's trace lane — `rank` for a solo run, `lane_base +
/// rank` for a tenant in a multi-tenant run.
#[inline]
fn trace_instant(lane: u32, name: &'static str, at: VirtualTime, seq: u64, attempt: u64) {
    if trace::enabled(Category::TRANSPORT) {
        trace::record(TraceEvent::instant(
            Category::TRANSPORT,
            name,
            lane,
            at.as_nanos(),
            seq,
            attempt,
        ));
    }
}

/// Buddy-rank gossip: "rank `rank` fail-stopped at `at`", piggybacked on a
/// telemetry batch. Like `sent_at`, notices ride outside the CRC — they
/// are control-plane metadata attached by the transport, not payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeathNotice {
    /// The rank believed dead.
    pub rank: usize,
    /// Its fail-stop instant.
    pub at: VirtualTime,
}

/// One sequence-numbered, checksummed batch of slice records.
#[derive(Clone, Debug)]
pub struct TelemetryBatch {
    /// Sending rank.
    pub rank: usize,
    /// Per-rank sequence number, starting at 0 with no holes at the
    /// sender — the server detects losses as gaps in this sequence.
    pub seq: u64,
    /// Virtual instant the batch was first handed to the transport.
    pub sent_at: VirtualTime,
    /// The payload.
    pub records: Vec<SliceRecord>,
    /// CRC-32 over header and payload, verified by the server.
    pub crc: u32,
    /// Optional piggybacked death gossip about a peer rank.
    pub death_notice: Option<DeathNotice>,
}

impl TelemetryBatch {
    /// Build a batch, stamping its checksum.
    pub fn new(rank: usize, seq: u64, sent_at: VirtualTime, records: Vec<SliceRecord>) -> Self {
        let crc = checksum(rank, seq, &records);
        TelemetryBatch {
            rank,
            seq,
            sent_at,
            records,
            crc,
            death_notice: None,
        }
    }

    /// Whether the checksum still matches the content.
    pub fn verify(&self) -> bool {
        checksum(self.rank, self.seq, &self.records) == self.crc
    }

    /// A copy damaged in flight (used by fault-injecting channels).
    pub(crate) fn corrupted_copy(&self) -> Self {
        let mut c = self.clone();
        c.crc ^= 0x5EED_BEEF;
        c
    }
}

/// Records serialised per CRC call in [`checksum`].
const CHECKSUM_CHUNK: usize = 16;

/// How long a sender waits for a batch acknowledgement before it
/// schedules a retry.
const ACK_TIMEOUT: Duration = Duration::from_millis(5);

/// Base of the exponential retry backoff, doubled per failed attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Exponential retry backoff: `BACKOFF_BASE × 2^(attempts-1)`, capped to
/// avoid overflow on absurd budgets. Telemetry batches and control
/// directives both space their retries by it.
pub(crate) fn backoff(attempts: u32) -> Duration {
    let shift = attempts.saturating_sub(1).min(16);
    Duration::from_nanos(BACKOFF_BASE.as_nanos() << shift)
}

/// CRC-32 over the batch header and each record's wire bytes
/// ([`SliceRecord::to_wire`]). Records are serialised sixteen at a time
/// into a stack buffer and folded in one call, so the fold runs over long
/// runs of bytes instead of one short call per field.
fn checksum(rank: usize, seq: u64, records: &[SliceRecord]) -> u32 {
    const WIRE: usize = SliceRecord::WIRE_BYTES as usize;
    let mut crc = Crc32::new();
    crc.eat(&(rank as u64).to_le_bytes());
    crc.eat(&seq.to_le_bytes());
    let mut buf = [0u8; CHECKSUM_CHUNK * WIRE];
    for chunk in records.chunks(CHECKSUM_CHUNK) {
        for (slot, r) in buf.chunks_exact_mut(WIRE).zip(chunk) {
            slot.copy_from_slice(&r.to_wire());
        }
        crc.eat(&buf[..chunk.len() * WIRE]);
    }
    crc.finish()
}

/// What one transmission attempt produced, from the sender's view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The server acknowledged the batch (accepted, or recognized it as a
    /// duplicate of one already accepted — both mean "stop resending").
    Acked,
    /// No acknowledgement arrived: the batch or its ack was lost, or the
    /// payload failed the server's CRC check. Retry after a timeout.
    NoAck,
    /// The send failed immediately — the server is unreachable.
    Unreachable,
    /// The server refused the batch under admission control: the tenant is
    /// over its ingest budget for the current window. Unlike [`NoAck`]
    /// this is an *explicit* nack carrying the server's own retry hint, so
    /// the sender retries at `retry_after` instead of its ack timeout.
    ///
    /// [`NoAck`]: SendOutcome::NoAck
    Busy {
        /// Server-suggested wait before resending.
        retry_after: Duration,
    },
}

/// A fallible path from a rank to the analysis server.
///
/// `attempt` is 0 for the first transmission of a batch and increments per
/// retry; fault-injecting implementations use it to roll fresh dice per
/// attempt while staying deterministic.
pub trait BatchChannel: Send + Sync {
    /// Transmit one batch at virtual instant `now`.
    fn send(&self, batch: &TelemetryBatch, now: VirtualTime, attempt: u32) -> SendOutcome;

    /// Poll for server→rank control directives due for `rank` at `now`
    /// (pull delivery: ranks poll at their batch cadence, the direction
    /// acks already flow). Fault-injecting channels roll the same seeded
    /// dice as telemetry here — in the disjoint [`CONTROL_SEQ_BASE`]
    /// namespace — so a returned directive may be duplicated or
    /// corrupted, and a dropped or delayed one yields an empty poll. The
    /// default (no control plane) returns nothing.
    fn poll_control(&self, _rank: usize, _now: VirtualTime) -> Vec<ControlDirective> {
        Vec::new()
    }

    /// Acknowledge, on behalf of `rank`, every control epoch up to
    /// `epoch`. Rides the poll exchange reliably — directive loss is
    /// what the dice model; a lost ack is indistinguishable from one at
    /// the next poll anyway, since acks are cumulative.
    fn ack_control(&self, _rank: usize, _epoch: u64, _now: VirtualTime) {}
}

/// A [`BatchChannel`] that can also surface the analysis server whose
/// results the run should be read from: the *currently live* server
/// (after a planned crash, the promoted standby). The product's one
/// implementation is [`TenantChannel`] — a run with a private server
/// routes into a one-tenant service ([`FaultyChannel::new`]) — and the
/// instrumented-run driver takes any sink, so a harness can wrap or
/// replace the route.
pub trait AnalysisSink: BatchChannel {
    /// The server holding this sink's analysis state right now.
    fn server(&self) -> Arc<AnalysisServer>;
}

/// The sender's view of one ingest result. Accepted and duplicate
/// deliveries both deserve an ack; only retryable rejections (corruption)
/// are worth resending; malformed or closed means the server rejected the
/// batch for good, so the sender should stop.
pub(crate) fn ack_of(result: Result<IngestReceipt, IngestError>) -> SendOutcome {
    match result {
        Ok(_) => SendOutcome::Acked,
        Err(e) if e.is_retryable() => SendOutcome::NoAck,
        Err(_) => SendOutcome::Acked,
    }
}

/// One fault-injected telemetry attempt: roll the plan's dice for
/// `(rank, seq, attempt)` and hand what the fabric lets through to
/// `ingest`, the route's target. A corrupted copy reaches the target,
/// fails its CRC check and produces no ack; a duplicated batch arrives
/// `copies` times and the last arrival's outcome is what the sender sees.
/// Every arrival borrows the sender's batch — no copy clones the records;
/// only a corrupted copy is built, since its stamp must differ.
pub(crate) fn deliver(
    plan: &FaultPlan,
    batch: &TelemetryBatch,
    now: VirtualTime,
    attempt: u32,
    ingest: impl Fn(&TelemetryBatch, VirtualTime) -> SendOutcome,
) -> SendOutcome {
    match plan.fate(batch.rank, batch.seq, attempt, now) {
        SendFate::Unreachable => SendOutcome::Unreachable,
        SendFate::Dropped => SendOutcome::NoAck,
        SendFate::Delivered {
            copies,
            delay,
            corrupt,
        } => {
            let arrival = now + delay;
            if corrupt {
                ingest(&batch.corrupted_copy(), arrival);
                return SendOutcome::NoAck;
            }
            let mut outcome = SendOutcome::NoAck;
            for _ in 0..copies.max(1) {
                outcome = ingest(batch, arrival);
            }
            outcome
        }
    }
}

/// One fault-injected control poll against `server`: begin the due
/// attempt (if any), roll the rank's dice in the [`CONTROL_SEQ_BASE`]
/// namespace, and translate the fate — drop/unreachable lose the attempt
/// (backoff already scheduled), delay reschedules it (a late arrival, not
/// a loss), corruption delivers a damaged frame the rank's CRC gate will
/// reject, and duplication returns multiple copies the rank sheds as
/// stale. Under [`FaultPlan::none`] a due directive is returned exactly
/// once.
pub(crate) fn faulty_poll_control(
    server: &AnalysisServer,
    plan: &FaultPlan,
    rank: usize,
    now: VirtualTime,
) -> Vec<ControlDirective> {
    let Some((directive, attempt)) = server.control_begin_attempt(rank, now) else {
        return Vec::new();
    };
    // Attempts are 1-based in the controller; the dice namespace is
    // 0-based per attempt, like telemetry retries.
    match plan.fate(rank, CONTROL_SEQ_BASE + directive.epoch, attempt - 1, now) {
        SendFate::Unreachable | SendFate::Dropped => {
            server.control_delivery_lost(rank);
            Vec::new()
        }
        SendFate::Delivered {
            copies,
            delay,
            corrupt,
        } => {
            if delay > Duration::ZERO {
                server.control_delay(rank, now + delay);
                return Vec::new();
            }
            if corrupt {
                server.control_delivery_lost(rank);
                return vec![directive.corrupted_copy()];
            }
            std::iter::repeat_with(|| directive.clone())
                .take(copies.max(1) as usize)
                .collect()
        }
    }
}

/// The route of a run with a private analysis server. Not a channel type
/// of its own: a private server is a one-tenant [`AnalysisService`], so
/// `new` hands back that service's [`TenantChannel`].
pub enum FaultyChannel {}

// `new` returns the route, not `Self`: the type only names the run's shape.
#[allow(clippy::new_ret_no_self)]
impl FaultyChannel {
    /// Route telemetry into `server` under `plan`: every attempt meets the
    /// plan's dice (drops, duplicates, delays, corruption, outages). When
    /// the plan schedules a server crash and `server` journals (see
    /// [`AnalysisServer::try_new_durable`]), the first operation at or past
    /// the instant — send, control poll or control ack — fires
    /// [`AnalysisService::fail_over`]: the server's in-memory state dies
    /// wholesale and a standby replayed from its log from the start takes
    /// over. A server that does not journal ignores the planned crash.
    pub fn new(server: Arc<AnalysisServer>, plan: FaultPlan) -> TenantChannel {
        TenantChannel::new(Arc::new(AnalysisService::solo(server)), TenantId(0), plan)
    }
}

/// The lossless route: [`FaultyChannel`] under [`FaultPlan::none`] —
/// every batch is ingested immediately and acked, every due directive is
/// delivered exactly once.
pub enum DirectChannel {}

// As for `FaultyChannel`.
#[allow(clippy::new_ret_no_self)]
impl DirectChannel {
    /// Route telemetry into `server`, losslessly.
    pub fn new(server: Arc<AnalysisServer>) -> TenantChannel {
        FaultyChannel::new(server, FaultPlan::none())
    }
}

/// Virtual cost charged to the sending rank's clock per transmission
/// attempt, and per control directive a rank receives.
pub const SEND_COST: Duration = Duration::from_micros(2);

/// Transport tunables, extracted from [`RuntimeConfig`].
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Unsent batches buffered per rank before drop-oldest kicks in.
    pub buffer_capacity: usize,
    /// Maximum transmission attempts per batch (first send + retries).
    pub retry_budget: u32,
}

impl TransportConfig {
    /// Extract the transport knobs from a runtime config.
    pub fn from_runtime(cfg: &RuntimeConfig) -> Self {
        TransportConfig {
            buffer_capacity: cfg.buffer_capacity.max(1),
            retry_budget: cfg.retry_budget.max(1),
        }
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig::from_runtime(&RuntimeConfig::default())
    }
}

/// Sender-side delivery counters, reported per rank after the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Batches handed to the transport.
    pub batches_enqueued: u64,
    /// Transmission attempts made (first sends + retries).
    pub send_attempts: u64,
    /// Batches acknowledged by the server.
    pub acked: u64,
    /// Retries performed.
    pub retries: u64,
    /// Batches dropped because the bounded buffer overflowed (oldest
    /// first).
    pub dropped_overflow: u64,
    /// Batches dropped after exhausting the retry budget.
    pub dropped_exhausted: u64,
    /// Immediate send failures (server unreachable).
    pub unreachable_errors: u64,
    /// Explicit admission-control refusals (`SendOutcome::Busy`): the
    /// server told this sender its tenant is over budget.
    pub backpressured: u64,
    /// Records inside all dropped batches.
    pub records_dropped: u64,
}

impl TransportStats {
    /// Fold another rank's counters into this one.
    pub fn merge(&mut self, other: &TransportStats) {
        self.batches_enqueued += other.batches_enqueued;
        self.send_attempts += other.send_attempts;
        self.acked += other.acked;
        self.retries += other.retries;
        self.dropped_overflow += other.dropped_overflow;
        self.dropped_exhausted += other.dropped_exhausted;
        self.unreachable_errors += other.unreachable_errors;
        self.backpressured += other.backpressured;
        self.records_dropped += other.records_dropped;
    }

    /// Batches given up on, for any reason.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_overflow + self.dropped_exhausted
    }
}

/// A batch sent but not yet acknowledged.
struct Pending {
    batch: TelemetryBatch,
    /// Attempts already made.
    attempts: u32,
    /// Don't retry before this virtual instant.
    next_retry_at: VirtualTime,
}

/// Per-rank transport endpoint: bounded buffering, sequence numbering,
/// ack-timeout retries with exponential backoff, and a circuit breaker
/// that stops hammering an unreachable server.
///
/// Nothing here blocks: every call does a bounded amount of work and
/// returns the virtual cost to charge to the rank's clock, so a fully dead
/// server degrades a run (counted drops, missing telemetry) but can never
/// hang or crash it.
pub struct RankTransport {
    rank: usize,
    /// Trace lane for this endpoint's events — `rank` for a solo run,
    /// `lane_base + rank` for a tenant in a multi-tenant run.
    lane: u32,
    channel: Arc<dyn BatchChannel>,
    cfg: TransportConfig,
    next_seq: u64,
    /// Batches not yet transmitted once (bounded; drop-oldest).
    queue: VecDeque<TelemetryBatch>,
    /// Batches awaiting ack or retry.
    pending: Vec<Pending>,
    /// After an unreachable error, hold all sends until this instant.
    circuit_open_until: VirtualTime,
    /// Death gossip to piggyback on every batch created from now on.
    death_notice: Option<DeathNotice>,
    /// Records in the largest batch enqueued so far: the capacity of the
    /// next [`RankTransport::recycled_buffer`].
    largest_batch: usize,
    stats: TransportStats,
}

impl RankTransport {
    /// Create the endpoint for one rank.
    pub fn new(rank: usize, channel: Arc<dyn BatchChannel>, cfg: TransportConfig) -> Self {
        RankTransport {
            rank,
            lane: rank as u32,
            channel,
            cfg,
            next_seq: 0,
            queue: VecDeque::new(),
            pending: Vec::new(),
            circuit_open_until: VirtualTime::ZERO,
            death_notice: None,
            largest_batch: 0,
            stats: TransportStats::default(),
        }
    }

    /// An empty record buffer for the next batch, with room for as many
    /// records as the largest batch this endpoint has sent. The sensor
    /// runtime installs it as its outbox, so a steady flush cadence fills
    /// it without reallocating. There is no pool: a batch's buffer is
    /// freed once the batch is acknowledged or dropped, so an idle rank
    /// holds no record buffer beyond its outbox.
    pub fn recycled_buffer(&mut self) -> Vec<SliceRecord> {
        Vec::with_capacity(self.largest_batch)
    }

    /// Move this endpoint's trace events to a different lane (builder
    /// style). Multi-tenant runs give each tenant a disjoint lane range so
    /// one timeline shows every tenant's transport without collisions.
    pub fn with_trace_lane(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Non-consuming form of [`RankTransport::with_trace_lane`].
    pub fn set_trace_lane(&mut self, lane: u32) {
        self.lane = lane;
    }

    /// Set (or clear) the death gossip attached to every batch built from
    /// now on. The engine deduplicates notices, so repeating one per batch
    /// just makes the gossip loss-tolerant.
    pub fn set_death_notice(&mut self, notice: Option<DeathNotice>) {
        self.death_notice = notice;
    }

    /// Hand a flushed batch of records to the transport and pump the send
    /// machinery. Returns the virtual cost to charge to the rank's clock.
    pub fn enqueue(&mut self, records: Vec<SliceRecord>, now: VirtualTime) -> Duration {
        if !records.is_empty() {
            self.largest_batch = self.largest_batch.max(records.len());
            let mut batch = TelemetryBatch::new(self.rank, self.next_seq, now, records);
            batch.death_notice = self.death_notice;
            self.next_seq += 1;
            self.stats.batches_enqueued += 1;
            self.queue.push_back(batch);
            while self.queue.len() > self.cfg.buffer_capacity {
                // Proof: the loop guard holds `len > capacity >= 0`.
                let victim = self.queue.pop_front().expect("len checked");
                self.stats.dropped_overflow += 1;
                self.stats.records_dropped += victim.records.len() as u64;
                trace_instant(self.lane, "drop", now, victim.seq, 0);
            }
        }
        self.pump(now)
    }

    /// Drive retries that are due and transmit queued batches. Returns the
    /// virtual cost of the attempts made.
    pub(crate) fn pump(&mut self, now: VirtualTime) -> Duration {
        let mut cost = Duration::ZERO;
        if now < self.circuit_open_until {
            return cost; // breaker open: let the server breathe
        }
        // Retries first — older data, and their timeouts have expired.
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            if p.next_retry_at <= now {
                self.stats.retries += 1;
                trace_instant(
                    self.lane,
                    "retry",
                    now + cost,
                    p.batch.seq,
                    p.attempts as u64,
                );
                cost += self.attempt(p.batch, p.attempts, now + cost);
            } else {
                self.pending.push(p);
            }
        }
        // Fresh batches, oldest first.
        while let Some(batch) = self.queue.pop_front() {
            cost += self.attempt(batch, 0, now + cost);
            if self.circuit_open_until > now {
                break; // the server just became unreachable; stop hammering
            }
        }
        cost
    }

    /// Final flush at rank exit: enqueue the tail batch and drain what can
    /// be drained under the retry budget. The drain walks a *local* virtual
    /// cursor past retry deadlines instead of waiting, is bounded by the
    /// budget, and drops (with counting) whatever remains — a dead server
    /// cannot hang a finishing rank. Returns the send-attempt cost to
    /// charge to the rank's clock.
    pub fn finish(&mut self, tail: Vec<SliceRecord>, now: VirtualTime) -> Duration {
        let mut cost = self.enqueue(tail, now);
        let mut cursor = now + cost;
        // Each round either empties the queue, acks something, or burns one
        // retry attempt of some pending batch; the budget bounds the total.
        let max_rounds = (self.cfg.retry_budget as usize + 1)
            * (self.cfg.buffer_capacity + self.pending.len() + 1);
        for _ in 0..max_rounds {
            if self.queue.is_empty() && self.pending.is_empty() {
                break;
            }
            // Jump to the next instant where anything becomes actionable.
            let next_retry = self
                .pending
                .iter()
                .map(|p| p.next_retry_at)
                .min()
                .unwrap_or(cursor);
            cursor = cursor.max(next_retry).max(self.circuit_open_until);
            let c = self.pump(cursor);
            cursor += c;
            cost += c;
        }
        // Give up on the rest, visibly.
        for batch in std::mem::take(&mut self.queue) {
            self.stats.dropped_exhausted += 1;
            self.stats.records_dropped += batch.records.len() as u64;
            trace_instant(self.lane, "drop", cursor, batch.seq, 0);
        }
        for p in std::mem::take(&mut self.pending) {
            self.stats.dropped_exhausted += 1;
            self.stats.records_dropped += p.batch.records.len() as u64;
            trace_instant(self.lane, "drop", cursor, p.batch.seq, p.attempts as u64);
        }
        cost
    }

    /// The underlying channel. The harness polls server→rank control
    /// directives through it at the batch cadence.
    pub fn channel(&self) -> &Arc<dyn BatchChannel> {
        &self.channel
    }

    /// Sender-side counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    fn attempt(
        &mut self,
        batch: TelemetryBatch,
        attempts_before: u32,
        now: VirtualTime,
    ) -> Duration {
        self.stats.send_attempts += 1;
        trace_instant(self.lane, "send", now, batch.seq, attempts_before as u64);
        let outcome = self.channel.send(&batch, now, attempts_before);
        let attempts = attempts_before + 1;
        match outcome {
            SendOutcome::Acked => {
                self.stats.acked += 1;
                trace_instant(self.lane, "ack", now, batch.seq, attempts as u64);
            }
            SendOutcome::NoAck => {
                trace_instant(self.lane, "noack", now, batch.seq, attempts as u64);
                let at = now + ACK_TIMEOUT + backoff(attempts);
                self.schedule_retry(batch, attempts, at);
            }
            SendOutcome::Unreachable => {
                self.stats.unreachable_errors += 1;
                trace_instant(self.lane, "unreachable", now, batch.seq, attempts as u64);
                let at = now + backoff(attempts);
                self.circuit_open_until = self.circuit_open_until.max(at);
                self.schedule_retry(batch, attempts, at);
            }
            SendOutcome::Busy { retry_after } => {
                self.stats.backpressured += 1;
                trace_instant(self.lane, "busy", now, batch.seq, attempts as u64);
                // Honor the server's hint: retry once the admission window
                // rolls over (plus backoff so repeat refusals space out).
                // A refusal is an explicit promise of later admission, not
                // a failure, so it does not consume the retry budget — a
                // backpressured batch is delayed, never dropped. The
                // breaker stays open until the *retry itself* is due, not
                // just until the window rolls over: a fresh batch acked
                // ahead of an older refused one would reorder this rank's
                // records, and per-rank in-order ingest is what keeps the
                // engine's floating-point accumulation bitwise
                // reproducible. (Dropping or reordering here would make
                // the result depend on which rank won the admission race.)
                let at = now + retry_after + backoff(attempts);
                self.circuit_open_until = self.circuit_open_until.max(at);
                self.pending.push(Pending {
                    batch,
                    attempts: attempts_before,
                    next_retry_at: at,
                });
            }
        }
        SEND_COST
    }

    fn schedule_retry(&mut self, batch: TelemetryBatch, attempts: u32, at: VirtualTime) {
        if attempts >= self.cfg.retry_budget {
            self.stats.dropped_exhausted += 1;
            self.stats.records_dropped += batch.records.len() as u64;
            trace_instant(self.lane, "drop", at, batch.seq, attempts as u64);
        } else {
            self.pending.push(Pending {
                batch,
                attempts,
                next_retry_at: at,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynrules::Bucket;
    use crate::record::{SensorInfo, SensorKind};
    use cluster_sim::fault::FaultConfig;
    use vsensor_lang::SensorId;

    fn rec(sensor: u32, slice: u64) -> SliceRecord {
        SliceRecord {
            sensor: SensorId(sensor),
            slice,
            avg: Duration::from_micros(10),
            count: 5,
            bucket: Bucket(0),
        }
    }

    fn sensors() -> Vec<SensorInfo> {
        vec![SensorInfo {
            sensor: SensorId(0),
            kind: SensorKind::Computation,
            process_invariant: true,
            location: "t:0".into(),
        }]
    }

    fn server(ranks: usize) -> Arc<AnalysisServer> {
        Arc::new(
            AnalysisServer::try_new(ranks, sensors(), RuntimeConfig::default())
                .expect("valid config"),
        )
    }

    #[test]
    fn checksum_catches_any_field_change() {
        let b = TelemetryBatch::new(1, 7, VirtualTime::ZERO, vec![rec(0, 3)]);
        assert!(b.verify());
        assert!(!b.corrupted_copy().verify());
        let mut tampered = b.clone();
        tampered.records[0].slice = 4;
        assert!(!tampered.verify());
        let mut reranked = b.clone();
        reranked.rank = 2;
        assert!(!reranked.verify());
    }

    #[test]
    fn direct_channel_delivers_and_acks() {
        let s = server(1);
        let cfg = TransportConfig::default();
        let mut t = RankTransport::new(0, Arc::new(DirectChannel::new(s.clone())), cfg);
        let cost = t.enqueue(vec![rec(0, 0), rec(0, 1)], VirtualTime::ZERO);
        assert_eq!(cost, SEND_COST);
        assert_eq!(t.stats().acked, 1);
        assert_eq!(t.queue.len() + t.pending.len(), 0);
        assert_eq!(s.stats().records, 2);
    }

    #[test]
    fn empty_flushes_are_free() {
        let s = server(1);
        let mut t = RankTransport::new(
            0,
            Arc::new(DirectChannel::new(s.clone())),
            TransportConfig::default(),
        );
        assert_eq!(t.enqueue(Vec::new(), VirtualTime::ZERO), Duration::ZERO);
        assert_eq!(s.stats().batches, 0);
    }

    #[test]
    fn dropped_batches_are_retried_until_acked() {
        // Plan drops ~half of first attempts; retries roll fresh dice, so
        // with a budget of 8 the residual loss rate is ~0.4%.
        let s = server(1);
        let plan = FaultPlan::lossy(0.5, 42);
        let cfg = TransportConfig {
            retry_budget: 8,
            ..TransportConfig::default()
        };
        let mut t = RankTransport::new(0, Arc::new(FaultyChannel::new(s.clone(), plan)), cfg);
        let mut now = VirtualTime::ZERO;
        for i in 0..50u64 {
            now += Duration::from_millis(100);
            t.enqueue(vec![rec(0, i)], now);
        }
        t.finish(Vec::new(), now + Duration::from_millis(100));
        let st = t.stats().clone();
        assert!(st.retries > 0, "{st:?}");
        assert!(st.acked >= 45, "most batches get through: {st:?}");
        assert_eq!(
            st.acked + st.total_dropped(),
            st.batches_enqueued,
            "every batch is accounted for: {st:?}"
        );
    }

    #[test]
    fn retry_budget_bounds_attempts_per_batch() {
        // 100% loss: every batch is attempted exactly `retry_budget` times
        // then dropped with its records counted.
        let s = server(1);
        let plan = FaultPlan::lossy(1.0, 1);
        let cfg = TransportConfig {
            retry_budget: 3,
            ..TransportConfig::default()
        };
        let mut t = RankTransport::new(0, Arc::new(FaultyChannel::new(s.clone(), plan)), cfg);
        t.enqueue(vec![rec(0, 0), rec(0, 1)], VirtualTime::ZERO);
        t.finish(Vec::new(), VirtualTime::from_millis(1));
        let st = t.stats();
        assert_eq!(st.send_attempts, 3);
        assert_eq!(st.acked, 0);
        assert_eq!(st.dropped_exhausted, 1);
        assert_eq!(st.records_dropped, 2);
        assert_eq!(s.stats().records, 0);
        assert_eq!(
            t.queue.len() + t.pending.len(),
            0,
            "finish leaves nothing behind"
        );
    }

    #[test]
    fn buffer_overflow_drops_oldest_first() {
        // An outage covering the whole test keeps the breaker open, so
        // enqueued batches pile up in the bounded buffer.
        let s = server(1);
        let plan = FaultPlan::none().with_outage(VirtualTime::ZERO, VirtualTime::from_secs(3600));
        let cfg = TransportConfig {
            buffer_capacity: 4,
            ..TransportConfig::default()
        };
        let mut t = RankTransport::new(0, Arc::new(FaultyChannel::new(s, plan)), cfg);
        let mut now = VirtualTime::ZERO;
        for i in 0..10u64 {
            now += Duration::from_micros(10);
            t.enqueue(vec![rec(0, i)], now);
        }
        let st = t.stats();
        assert!(st.dropped_overflow >= 5, "{st:?}");
        assert!(st.unreachable_errors >= 1, "{st:?}");
        // The freshest batches are the ones retained.
        assert!(t.queue.iter().all(|b| b.seq >= 5), "drop-oldest");
    }

    #[test]
    fn full_outage_degrades_but_terminates() {
        let s = server(1);
        let plan = FaultPlan::none().with_outage(VirtualTime::ZERO, VirtualTime::from_secs(3600));
        let mut t = RankTransport::new(
            0,
            Arc::new(FaultyChannel::new(s.clone(), plan)),
            TransportConfig::default(),
        );
        let mut now = VirtualTime::ZERO;
        for i in 0..20u64 {
            now += Duration::from_millis(100);
            t.enqueue(vec![rec(0, i)], now);
        }
        t.finish(vec![rec(0, 99)], now);
        let st = t.stats();
        assert_eq!(st.acked, 0);
        assert_eq!(st.batches_enqueued, 21);
        assert_eq!(st.acked + st.total_dropped(), 21, "{st:?}");
        assert_eq!(s.stats().records, 0);
        assert_eq!(t.queue.len() + t.pending.len(), 0);
    }

    /// How a target is prepared so that an arriving batch meets one
    /// particular ingest outcome.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Meets {
        Accepted,
        Duplicate,
        Corrupt,
        Malformed,
        Closed,
        Backpressure,
    }

    /// Ingests the tenant has seen: every ingest that gets past the closed
    /// gate leaves exactly one mark in one of these counters.
    fn marks(service: &AnalysisService) -> u64 {
        let server = service.server(TenantId(0)).unwrap();
        let delivery = server.interim(VirtualTime::from_secs(1)).delivery;
        server.stats().batches
            + server.stats().malformed
            + delivery
                .iter()
                .map(|d| d.duplicates + d.corrupt)
                .sum::<u64>()
            + service.stats(TenantId(0)).unwrap().backpressured
    }

    #[test]
    fn every_fate_and_ingest_outcome_maps_to_one_send_outcome() {
        use crate::service::{ServiceConfig, TenantSpec, BUDGET_WINDOW};
        // Both arrivals fall in the first admission window.
        let now = VirtualTime::from_millis(1);
        let stall_end = VirtualTime::from_millis(10);
        let rates = |dup: f64, corrupt: f64| {
            FaultPlan::new(FaultConfig {
                duplicate_rate: dup,
                corrupt_rate: corrupt,
                ..Default::default()
            })
        };
        // (plan forcing the fate, arrival instant, ingests it causes, and
        // the outcome when the fate alone decides it)
        let fates = [
            (
                FaultPlan::none().with_outage(VirtualTime::ZERO, stall_end),
                now,
                0,
                Some(SendOutcome::Unreachable),
            ),
            (FaultPlan::lossy(1.0, 1), now, 0, Some(SendOutcome::NoAck)),
            (FaultPlan::none(), now, 1, None),
            (rates(1.0, 0.0), now, 2, None),
            (rates(0.0, 1.0), now, 1, Some(SendOutcome::NoAck)),
        ];
        for (plan, arrival, ingests, fate_decides) in &fates {
            let refused = SendOutcome::Busy {
                retry_after: BUDGET_WINDOW - arrival.since(VirtualTime::ZERO),
            };
            let outcomes = [
                (Meets::Accepted, SendOutcome::Acked),
                (Meets::Duplicate, SendOutcome::Acked),
                (Meets::Corrupt, SendOutcome::NoAck),
                (Meets::Malformed, SendOutcome::Acked),
                (Meets::Closed, SendOutcome::Acked),
                (Meets::Backpressure, refused),
            ];
            for (meets, delivered) in outcomes {
                let good = TelemetryBatch::new(0, 0, now, vec![rec(0, 0)]);
                let batch = match meets {
                    Meets::Corrupt => good.corrupted_copy(),
                    Meets::Malformed => TelemetryBatch::new(7, 0, now, vec![rec(0, 0)]),
                    _ => good.clone(),
                };
                let budget = u32::from(meets == Meets::Backpressure);
                let config = ServiceConfig::default().with_batch_budget(budget);
                let service = Arc::new(AnalysisService::new(config));
                let spec = TenantSpec {
                    ranks: 1,
                    sensors: sensors(),
                    config: RuntimeConfig::default(),
                };
                service.register(TenantId(0), spec).unwrap();
                let live = service.server(TenantId(0)).unwrap();
                let channel = TenantChannel::new(service.clone(), TenantId(0), plan.clone());
                match meets {
                    Meets::Duplicate => drop(live.ingest(&good, now)),
                    Meets::Closed => drop(live.session().close(stall_end)),
                    // Use up rank 0's whole share of the window.
                    Meets::Backpressure => {
                        let spent = TelemetryBatch::new(0, 9, now, vec![rec(0, 9)]);
                        service.ingest(TenantId(0), &spent, now).unwrap();
                    }
                    _ => {}
                }
                let before = marks(&service);
                let got = channel.send(&batch, now, 0);
                let seen = marks(&service) - before;
                let case = format!("{plan:?} meets {meets:?}");
                assert_eq!(got, fate_decides.unwrap_or(delivered), "{case}");
                let expected = if meets == Meets::Closed { 0 } else { *ingests };
                assert_eq!(seen, expected, "ingest count: {case}");
                if meets == Meets::Accepted && *ingests > 0 && fate_decides.is_none() {
                    // Copies arrive at now + delay, and only one counts.
                    let d = &live.interim(stall_end).delivery[0];
                    assert_eq!((d.accepted, d.duplicates), (1, ingests - 1), "{case}");
                    assert_eq!(d.mean_latency, arrival.since(now), "{case}");
                }
            }
        }
    }

    #[test]
    fn corruption_is_rejected_then_recovered_by_retry() {
        // Corrupt every first attempt; retries (attempt >= 1) roll new dice
        // with rate 1.0 so they also corrupt — use 0.5 instead and check
        // bookkeeping consistency.
        let s = server(1);
        let plan = FaultPlan::new(cluster_sim::fault::FaultConfig {
            corrupt_rate: 0.5,
            seed: 9,
            ..Default::default()
        });
        let mut t = RankTransport::new(
            0,
            Arc::new(FaultyChannel::new(s.clone(), plan)),
            TransportConfig::default(),
        );
        let mut now = VirtualTime::ZERO;
        for i in 0..40u64 {
            now += Duration::from_millis(50);
            t.enqueue(vec![rec(0, i)], now);
        }
        t.finish(Vec::new(), now);
        let result = s.interim(now + Duration::from_secs(1));
        assert!(result.delivery[0].corrupt > 0, "CRC rejections recorded");
        let st = t.stats();
        assert_eq!(st.acked + st.total_dropped(), 40, "{st:?}");
        assert!(st.acked > 25, "retries recover most corruption: {st:?}");
    }

    #[test]
    fn death_notice_rides_outside_the_crc() {
        let b = TelemetryBatch {
            death_notice: Some(DeathNotice {
                rank: 2,
                at: VirtualTime::from_millis(3),
            }),
            ..TelemetryBatch::new(1, 0, VirtualTime::ZERO, vec![rec(0, 0)])
        };
        assert!(b.verify(), "gossip is metadata, not checksummed payload");
        assert_eq!(
            b.death_notice,
            Some(DeathNotice {
                rank: 2,
                at: VirtualTime::from_millis(3),
            })
        );
    }

    #[test]
    fn transport_attaches_gossip_to_new_batches() {
        let s = server(3);
        let mut t = RankTransport::new(
            0,
            Arc::new(DirectChannel::new(s)),
            TransportConfig::default(),
        );
        t.enqueue(vec![rec(0, 0)], VirtualTime::ZERO);
        assert!(t.queue.is_empty());
        t.set_death_notice(Some(DeathNotice {
            rank: 1,
            at: VirtualTime::from_millis(7),
        }));
        // Open the breaker path artificially by inspecting the built batch:
        // enqueue with gossip set must stamp the notice.
        let plan = FaultPlan::none().with_outage(VirtualTime::ZERO, VirtualTime::from_secs(1));
        let mut held = RankTransport::new(
            1,
            Arc::new(FaultyChannel::new(server(3), plan)),
            TransportConfig::default(),
        );
        held.set_death_notice(Some(DeathNotice {
            rank: 2,
            at: VirtualTime::from_millis(9),
        }));
        held.enqueue(vec![rec(0, 1)], VirtualTime::ZERO);
        let queued: Vec<_> = held
            .queue
            .iter()
            .chain(held.pending.iter().map(|p| &p.batch))
            .collect();
        assert!(
            queued.iter().all(|b| b.death_notice.is_some()),
            "{queued:?}"
        );
    }

    #[test]
    fn recycled_buffer_is_sized_by_the_largest_batch() {
        let s = server(1);
        let mut t = RankTransport::new(
            0,
            Arc::new(DirectChannel::new(s)),
            TransportConfig::default(),
        );
        assert_eq!(t.recycled_buffer().capacity(), 0, "nothing sent yet");
        let sizes = [3u64, 7, 2];
        for (i, &n) in sizes.iter().enumerate() {
            let at = VirtualTime::from_millis(i as u64);
            t.enqueue((0..n).map(|s| rec(0, s)).collect(), at);
            let buf = t.recycled_buffer();
            assert!(buf.is_empty(), "a fresh buffer holds no records");
            let largest = *sizes[..=i].iter().max().unwrap() as usize;
            assert!(buf.capacity() >= largest, "after batch {i}");
        }
        // An empty flush sends nothing and leaves the size alone.
        t.enqueue(Vec::new(), VirtualTime::from_millis(9));
        assert!(t.recycled_buffer().capacity() >= 7);
    }

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff(1).as_nanos(), 2_000_000);
        assert_eq!(backoff(2).as_nanos(), 4_000_000);
        assert_eq!(backoff(5).as_nanos(), 32_000_000);
    }
}
