//! Server→rank control plane: runtime-adaptive sensor selection.
//!
//! The paper's sensor selection is static — once instrumented, every
//! v-sensor reports at the same granularity for the whole run. This
//! module closes the loop: the engine's detection passes feed a budget
//! controller that disables the heaviest sensors of ranks whose
//! observed instrumentation-cost *rate* exceeds
//! [`RuntimeConfig::overhead_budget`] (a fraction of covered run time)
//! (re-enabling them under hysteresis), and escalates ranks covered by a
//! live variance alert from the coarse smoothing slice to
//! [`RuntimeConfig::escalation_slice`] (zoom-in) while everyone else
//! stays coarse.
//!
//! # Protocol
//!
//! Decisions travel as [`ControlDirective`]s — epoch-versioned,
//! CRC-framed, **state-complete** messages: each directive carries the
//! rank's entire desired sensor state (dark set + slice subdivision),
//! not a delta. State-complete framing makes idempotency structural:
//! applying epoch N twice, or N after N+1, changes nothing, so the
//! rank-side acceptance rule is simply *apply only monotonically newer
//! epochs* ([`DirectiveGate`]). Directives ride the same channel objects
//! as telemetry and are subject to the same seeded `FaultPlan`
//! drop/dup/delay/corrupt dice, rolled in a disjoint sequence namespace
//! ([`CONTROL_SEQ_BASE`]) so telemetry fates are untouched.
//!
//! Delivery is pull-shaped (ranks poll at their batch cadence — the
//! direction acks already flow on the PR-1 transport): an un-acked
//! directive stays pending with an exponential-backoff retry schedule
//! charged to the virtual clock, a newer epoch supersedes an older
//! pending one, and a dead rank's pending directive is cancelled when
//! the engine's death verdict (gossiped from the simmpi `DeathBoard` or
//! decided by liveness timeout) lands — never retried forever, never
//! counted as overhead.
//!
//! # Crash recovery
//!
//! The controller's full state is cloned into every [`EngineSnapshot`]
//! written to the WAL, and its decision inputs (per-rank sensor cost
//! accumulated from ingested records) are derived exclusively from
//! batches the WAL already replays — so a crashed-and-recovered server
//! resumes the *identical* epoch schedule bitwise. Delivery bookkeeping
//! (acks, attempt counters) is rank-driven and not WAL-logged; after
//! recovery pending directives simply re-deliver and ranks shed the
//! duplicates as stale.
//!
//! [`RuntimeConfig::overhead_budget`]: crate::config::RuntimeConfig::overhead_budget
//! [`RuntimeConfig::escalation_slice`]: crate::config::RuntimeConfig::escalation_slice
//! [`EngineSnapshot`]: crate::engine::EngineSnapshot

use crate::config::RuntimeConfig;
use crate::crc::Crc32;
use crate::record::SliceRecord;
use crate::tick::{ANALYSIS_COST, PROBE_COST};
use crate::transport::{backoff, SEND_COST};
use cluster_sim::time::VirtualTime;

/// Sequence-namespace base for control-directive fault dice. Telemetry
/// batches roll `FaultPlan::fate(rank, seq, attempt, at)` with the
/// batch's transport sequence number (a small counter); control
/// directives roll with `CONTROL_SEQ_BASE + epoch`, so the two streams
/// can never collide and adding the control plane leaves every telemetry
/// fate — and therefore every existing fault scenario — bit-identical.
pub const CONTROL_SEQ_BASE: u64 = 1 << 62;

/// One epoch-versioned control directive: the complete desired sensor
/// state for one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlDirective {
    /// Target rank.
    pub rank: usize,
    /// Per-rank monotonically increasing version. Epoch 0 is the
    /// implicit boot state (everything enabled, coarse slices); the
    /// first directive a rank can receive is epoch 1.
    pub epoch: u64,
    /// Sensors the rank must keep dark (raw [`SensorId`] values, sorted
    /// ascending).
    ///
    /// [`SensorId`]: vsensor_lang::SensorId
    pub disabled: Vec<u32>,
    /// Slice subdivision factor: 1 = aggregate at the configured coarse
    /// slice, k > 1 = aggregate at `slice / k` (escalated). Escalated
    /// records keep their coarse slice index, so server-side binning is
    /// unchanged.
    pub subdiv: u32,
    /// CRC-32 over every field above.
    pub crc: u32,
}

impl ControlDirective {
    /// Build a directive, stamping its CRC.
    pub fn new(rank: usize, epoch: u64, disabled: Vec<u32>, subdiv: u32) -> Self {
        let crc = Self::checksum(rank, epoch, &disabled, subdiv);
        ControlDirective {
            rank,
            epoch,
            disabled,
            subdiv,
            crc,
        }
    }

    fn checksum(rank: usize, epoch: u64, disabled: &[u32], subdiv: u32) -> u32 {
        let mut crc = Crc32::new();
        crc.eat(&(rank as u64).to_le_bytes());
        crc.eat(&epoch.to_le_bytes());
        crc.eat(&(disabled.len() as u64).to_le_bytes());
        for &s in disabled {
            crc.eat(&s.to_le_bytes());
        }
        crc.eat(&subdiv.to_le_bytes());
        crc.finish()
    }

    /// Whether the framed CRC matches the payload.
    pub fn verify(&self) -> bool {
        self.crc == Self::checksum(self.rank, self.epoch, &self.disabled, self.subdiv)
    }

    /// A copy with a corrupted frame — what a `FaultPlan` corruption die
    /// turns a delivery into. The rank's [`DirectiveGate`] must reject it.
    pub fn corrupted_copy(&self) -> Self {
        let mut d = self.clone();
        d.crc ^= 0x0C7A_F1A9;
        d
    }
}

/// The rank-side verdict on one received directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectiveVerdict {
    /// Newer epoch with a valid frame: the rank changed state.
    Applied,
    /// Valid frame but an epoch the rank already holds (duplicate or
    /// reordered delivery). No state change; still acknowledged, since
    /// the sender only needs to learn the rank's epoch reached this far.
    Stale,
    /// Frame CRC mismatch: dropped on the floor, never acknowledged.
    Rejected,
}

/// Rank-side directive acceptance: the CRC gate plus the monotonic-epoch
/// gate. This tiny state machine is the whole idempotency argument —
/// directives are state-complete, so "newer epoch wins, everything else
/// is a no-op" makes any interleaving of duplicated, reordered or
/// corrupted deliveries converge to the same applied-epoch sequence
/// (property-tested in `tests/control_prop.rs`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectiveGate {
    epoch: u64,
    /// Directives that changed state.
    pub applied: u64,
    /// Valid duplicates/reorders ignored.
    pub stale: u64,
    /// Corrupt frames rejected.
    pub rejected: u64,
}

impl DirectiveGate {
    /// Judge one received directive. The caller applies the payload only
    /// on [`DirectiveVerdict::Applied`], and acknowledges the gate's
    /// [`Self::epoch`] on anything but `Rejected`.
    pub fn admit(&mut self, d: &ControlDirective) -> DirectiveVerdict {
        if !d.verify() {
            self.rejected += 1;
            return DirectiveVerdict::Rejected;
        }
        if d.epoch <= self.epoch {
            self.stale += 1;
            return DirectiveVerdict::Stale;
        }
        self.epoch = d.epoch;
        self.applied += 1;
        DirectiveVerdict::Applied
    }

    /// Highest epoch applied so far (0 = boot state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// One issued directive in the controller's decision log — the "epoch
/// schedule" the crash-recovery contract compares bitwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlEpoch {
    /// Detection pass that issued it.
    pub pass: u64,
    /// Target rank.
    pub rank: usize,
    /// The epoch issued.
    pub epoch: u64,
    /// Desired slice subdivision.
    pub subdiv: u32,
    /// Desired dark set.
    pub disabled: Vec<u32>,
}

/// Control-plane counters for reports and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Directives issued (epoch bumps across all ranks).
    pub epochs_issued: u64,
    /// Sensors currently dark across all ranks (a gauge, not a total).
    pub sensors_dark: u64,
    /// Ranks escalated to fine slices.
    pub escalated_ranks: u64,
    /// Directives acknowledged by their rank.
    pub acked: u64,
    /// Delivery attempts the fault dice dropped or corrupted.
    pub lost: u64,
    /// Directives acknowledged only after at least one lost attempt —
    /// the "lost-then-recovered" figure.
    pub recovered: u64,
    /// Pending directives cancelled because their rank died.
    pub cancelled_dead: u64,
    /// Pending directives superseded by a newer epoch before any ack.
    pub superseded: u64,
}

/// A directive awaiting acknowledgement, with its virtual-clock retry
/// schedule.
#[derive(Clone, Debug)]
struct Pending {
    directive: ControlDirective,
    /// Delivery attempts begun (feeds the fault dice and the backoff).
    attempts: u32,
    /// No re-delivery before this instant.
    next_attempt_at: VirtualTime,
    /// Attempts the dice destroyed (for the recovered counter).
    lost: u32,
}

/// Per-rank controller state.
#[derive(Clone, Debug)]
struct RankControl {
    /// Last issued epoch (0 = nothing issued yet).
    epoch: u64,
    /// Highest epoch the rank acknowledged.
    acked: u64,
    /// Desired dark set (sorted raw sensor ids).
    disabled: Vec<u32>,
    /// Disable order, newest last — re-enables pop from the back.
    disabled_order: Vec<u32>,
    /// Desired slice subdivision (1 = coarse).
    subdiv: u32,
    escalated: bool,
    dead: bool,
    pending: Option<Pending>,
    /// Cumulative senses per sensor, from ingested records.
    senses: Vec<u64>,
    /// Per-sensor senses at the last decision pass.
    senses_at_pass: Vec<u64>,
    /// Cumulative records and batches ingested.
    records: u64,
    batches: u64,
    /// Cumulative observed instrumentation cost (ns).
    cost_ns: u64,
    /// Cost and batch marks at the last budget action (boot = 0): the
    /// base of the rate window the next budget decision judges.
    cost_at_action: u64,
    batches_at_action: u64,
}

impl RankControl {
    fn new(sensors: usize) -> Self {
        RankControl {
            epoch: 0,
            acked: 0,
            disabled: Vec::new(),
            disabled_order: Vec::new(),
            subdiv: 1,
            escalated: false,
            dead: false,
            pending: None,
            senses: vec![0; sensors],
            senses_at_pass: vec![0; sensors],
            records: 0,
            batches: 0,
            cost_ns: 0,
            cost_at_action: 0,
            batches_at_action: 0,
        }
    }
}

/// Minimum number of newly covered batches before the budget controller
/// judges a rank's rate again after an action (or after boot). Three
/// batch intervals: one absorbs the poll lag between issuing a directive
/// and the rank applying it at its next control poll, and the rest give
/// the post-directive regime enough coverage that a single straddling
/// batch cannot dominate the measurement.
const BUDGET_MIN_WINDOW: u64 = 3;

/// The server-side budget/escalation controller. Owned by the engine
/// (present only when [`RuntimeConfig::control_enabled`]); every
/// *decision* happens inside the serialized detection pass, so the epoch
/// schedule is a pure function of ingested telemetry — which is exactly
/// what the WAL replays.
///
/// [`RuntimeConfig::control_enabled`]: crate::config::RuntimeConfig::control_enabled
#[derive(Clone, Debug)]
pub(crate) struct Controller {
    config: RuntimeConfig,
    ranks: Vec<RankControl>,
    stats: ControlStats,
    schedule: Vec<ControlEpoch>,
    last_pass_at: VirtualTime,
}

impl Controller {
    pub(crate) fn new(config: RuntimeConfig, ranks: usize, sensors: usize) -> Self {
        Controller {
            config,
            ranks: (0..ranks).map(|_| RankControl::new(sensors)).collect(),
            stats: ControlStats::default(),
            schedule: Vec::new(),
            last_pass_at: VirtualTime::ZERO,
        }
    }

    /// Account one ingested batch into the rank's observed-cost model.
    /// Called under the engine's state lock, so a batch is either fully
    /// before or fully after any detection pass — the same atomicity the
    /// matrix accumulators have, which keeps streaming and replay
    /// decisions identical.
    pub(crate) fn observe_batch(&mut self, rank: usize, records: &[SliceRecord]) {
        let Some(rc) = self.ranks.get_mut(rank) else {
            return;
        };
        let probe = PROBE_COST.as_nanos();
        let analysis = ANALYSIS_COST.as_nanos();
        rc.batches += 1;
        rc.cost_ns += SEND_COST.as_nanos();
        for r in records {
            rc.records += 1;
            // Each sense is one tick + one tock probe; each finished
            // record ran the on-line analysis once.
            rc.cost_ns += r.count as u64 * 2 * probe + analysis;
            if let Some(s) = rc.senses.get_mut(r.sensor.0 as usize) {
                *s += r.count as u64;
            }
        }
    }

    /// Run the budget/escalation decision step for one detection pass.
    /// `spans` are the rank spans of this pass's freshly emitted variance
    /// alerts; `dead` is the engine's current fail-stop verdict.
    pub(crate) fn decide(
        &mut self,
        now: VirtualTime,
        pass: u64,
        spans: &[(usize, usize)],
        dead: impl Fn(usize) -> bool,
    ) {
        let budget = self.config.overhead_budget;
        let interval_ns = self.config.batch_interval.as_nanos() as f64;
        let fine = self.config.escalation_subdiv();
        let sensors = self
            .ranks
            .first()
            .map(|rc| rc.senses.len())
            .unwrap_or_default();
        for rank in 0..self.ranks.len() {
            if dead(rank) {
                self.cancel_dead(rank);
                continue;
            }
            let rc = &mut self.ranks[rank];
            let mut changed = false;
            // Zoom-in: a live alert covering this rank escalates it to
            // fine slices. One-way per run; everyone else stays coarse.
            if !rc.escalated && fine > 1 && spans.iter().any(|&(a, b)| a <= rank && rank <= b) {
                rc.escalated = true;
                rc.subdiv = fine;
                self.stats.escalated_ranks += 1;
                changed = true;
            }
            // Budget: judge the rank's instrumentation-cost *rate* since
            // the last budget action — Δcost over the run time the new
            // batches cover (batch count × batch interval), not wall
            // elapsed. Coverage normalization makes the measurement
            // immune to arrival alignment: whether a batch lands just
            // before or just after a pass shifts numerator and
            // denominator together, so an empty or doubled window can
            // never fake a rate. The base resets at every action, so
            // each decision judges the *post*-directive regime, and the
            // minimum window doubles as a cooldown absorbing the
            // one-poll lag before the rank applies the directive.
            // Hysteresis — act only above the budget or below half of
            // it — keeps the settled state from flapping.
            let window = rc.batches - rc.batches_at_action;
            if budget > 0.0 && window >= BUDGET_MIN_WINDOW {
                let mut acted = false;
                let covered = window as f64 * interval_ns;
                let rate = (rc.cost_ns - rc.cost_at_action) as f64 / covered;
                if rate > budget {
                    let heaviest = (0..sensors as u32)
                        .filter(|s| !rc.disabled.contains(s))
                        .map(|s| {
                            let w = rc.senses[s as usize] - rc.senses_at_pass[s as usize];
                            (w, s)
                        })
                        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                        .filter(|&(w, _)| w > 0);
                    // Never darken the last enabled sensor: localization
                    // beats the budget when the two conflict.
                    if sensors - rc.disabled.len() > 1 {
                        if let Some((_, s)) = heaviest {
                            let at = rc.disabled.partition_point(|&d| d < s);
                            rc.disabled.insert(at, s);
                            rc.disabled_order.push(s);
                            self.stats.sensors_dark += 1;
                            changed = true;
                            acted = true;
                        }
                    }
                } else if rate < 0.5 * budget {
                    if let Some(s) = rc.disabled_order.pop() {
                        rc.disabled.retain(|&d| d != s);
                        self.stats.sensors_dark -= 1;
                        changed = true;
                        acted = true;
                    }
                }
                if acted {
                    rc.cost_at_action = rc.cost_ns;
                    rc.batches_at_action = rc.batches;
                }
            }
            if changed {
                rc.epoch += 1;
                let directive =
                    ControlDirective::new(rank, rc.epoch, rc.disabled.clone(), rc.subdiv);
                if rc
                    .pending
                    .replace(Pending {
                        directive,
                        attempts: 0,
                        next_attempt_at: now,
                        lost: 0,
                    })
                    .is_some()
                {
                    self.stats.superseded += 1;
                }
                self.stats.epochs_issued += 1;
                self.schedule.push(ControlEpoch {
                    pass,
                    rank,
                    epoch: rc.epoch,
                    subdiv: rc.subdiv,
                    disabled: rc.disabled.clone(),
                });
            }
            rc.senses_at_pass.copy_from_slice(&rc.senses);
        }
        self.last_pass_at = now;
    }

    /// Begin one delivery attempt for the rank's pending directive, if
    /// one is due. Advances the attempt counter and schedules the next
    /// retry with exponential backoff on the virtual clock — an attempt
    /// the dice destroy costs exactly one backoff step, never a stall.
    pub(crate) fn begin_attempt(
        &mut self,
        rank: usize,
        now: VirtualTime,
    ) -> Option<(ControlDirective, u32)> {
        let rc = self.ranks.get_mut(rank)?;
        if rc.dead {
            return None;
        }
        let p = rc.pending.as_mut()?;
        if now < p.next_attempt_at {
            return None;
        }
        p.attempts += 1;
        p.next_attempt_at = now + backoff(p.attempts);
        Some((p.directive.clone(), p.attempts))
    }

    /// The fault dice destroyed (dropped or corrupted) a begun attempt.
    pub(crate) fn delivery_lost(&mut self, rank: usize) {
        if let Some(p) = self.ranks.get_mut(rank).and_then(|rc| rc.pending.as_mut()) {
            p.lost += 1;
            self.stats.lost += 1;
        }
    }

    /// The fault dice delayed a begun attempt: it arrives at `until`,
    /// not before. Not a loss — no retry is charged, the directive just
    /// lands late.
    pub(crate) fn delay_delivery(&mut self, rank: usize, until: VirtualTime) {
        if let Some(p) = self.ranks.get_mut(rank).and_then(|rc| rc.pending.as_mut()) {
            p.next_attempt_at = p.next_attempt_at.max(until);
        }
    }

    /// The rank acknowledged every epoch up to `epoch`.
    pub(crate) fn ack(&mut self, rank: usize, epoch: u64) {
        let Some(rc) = self.ranks.get_mut(rank) else {
            return;
        };
        rc.acked = rc.acked.max(epoch);
        if let Some(p) = &rc.pending {
            if p.directive.epoch <= epoch {
                if p.lost > 0 {
                    self.stats.recovered += 1;
                }
                self.stats.acked += 1;
                rc.pending = None;
            }
        }
    }

    /// The engine declared the rank dead: cancel its pending directive
    /// and never issue another. Idempotent.
    pub(crate) fn cancel_dead(&mut self, rank: usize) {
        let Some(rc) = self.ranks.get_mut(rank) else {
            return;
        };
        rc.dead = true;
        if rc.pending.take().is_some() {
            self.stats.cancelled_dead += 1;
        }
    }

    /// Counters for the report's control-plane section.
    pub(crate) fn stats(&self) -> ControlStats {
        self.stats.clone()
    }

    /// The issued-epoch log, in decision order — the schedule the
    /// crash-recovery contract compares bitwise.
    pub(crate) fn schedule(&self) -> Vec<ControlEpoch> {
        self.schedule.clone()
    }

    /// Cumulative modelled instrumentation cost per rank, in nanoseconds
    /// — the budget controller's own view of what instrumentation spent.
    pub(crate) fn observed_costs(&self) -> Vec<u64> {
        self.ranks.iter().map(|rc| rc.cost_ns).collect()
    }

    /// Fold the decision-relevant state into an engine fingerprint.
    /// Delivery bookkeeping (acks, attempt counters) is rank-driven, not
    /// replay-deterministic, and deliberately excluded.
    pub(crate) fn fold_fingerprint(&self, mut fold: impl FnMut(u64)) {
        fold(self.ranks.len() as u64);
        fold(self.last_pass_at.as_nanos());
        for rc in &self.ranks {
            fold(rc.epoch);
            fold(rc.subdiv as u64);
            fold(rc.escalated as u64);
            fold(rc.disabled.len() as u64);
            for &s in &rc.disabled {
                fold(s as u64);
            }
            fold(rc.cost_ns);
            fold(rc.cost_at_action);
            fold(rc.records);
            fold(rc.batches);
            fold(rc.batches_at_action);
        }
        fold(self.schedule.len() as u64);
        for e in &self.schedule {
            fold(e.pass);
            fold(e.rank as u64);
            fold(e.epoch);
            fold(e.subdiv as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynrules::Bucket;
    use cluster_sim::time::Duration;
    use vsensor_lang::SensorId;

    fn cfg(budget: f64) -> RuntimeConfig {
        RuntimeConfig {
            overhead_budget: budget,
            ..Default::default()
        }
    }

    fn record(sensor: u32, count: u32) -> SliceRecord {
        SliceRecord {
            sensor: SensorId(sensor),
            slice: 0,
            avg: Duration::from_micros(10),
            count,
            bucket: Bucket(0),
        }
    }

    #[test]
    fn directive_crc_round_trips_and_rejects_corruption() {
        let d = ControlDirective::new(3, 7, vec![1, 4], 4);
        assert!(d.verify());
        assert!(!d.corrupted_copy().verify());
        let mut tampered = d.clone();
        tampered.subdiv = 1;
        assert!(!tampered.verify(), "payload tamper breaks the frame");
    }

    #[test]
    fn gate_applies_only_monotonically_newer_epochs() {
        let mut gate = DirectiveGate::default();
        let e1 = ControlDirective::new(0, 1, vec![], 4);
        let e2 = ControlDirective::new(0, 2, vec![2], 4);
        assert_eq!(gate.admit(&e1), DirectiveVerdict::Applied);
        assert_eq!(gate.admit(&e1), DirectiveVerdict::Stale, "duplicate");
        assert_eq!(gate.admit(&e2), DirectiveVerdict::Applied);
        assert_eq!(gate.admit(&e1), DirectiveVerdict::Stale, "reordered");
        assert_eq!(gate.admit(&e2.corrupted_copy()), DirectiveVerdict::Rejected);
        assert_eq!(gate.epoch(), 2);
        assert_eq!((gate.applied, gate.stale, gate.rejected), (2, 2, 1));
    }

    #[test]
    fn over_budget_rank_gets_its_heaviest_sensor_disabled() {
        let mut c = Controller::new(cfg(0.001), 2, 3);
        // Rank 0: sensor 1 dominates. Rank 1: too few batches covered
        // for a rate judgment at all.
        for _ in 0..50 {
            c.observe_batch(0, &[record(0, 10), record(1, 4000), record(2, 5)]);
        }
        c.observe_batch(1, &[record(0, 1)]);
        c.decide(VirtualTime::from_millis(200), 1, &[], |_| false);
        let issued = c.schedule();
        assert_eq!(issued.len(), 1, "only the hot rank changes: {issued:?}");
        assert_eq!(issued[0].rank, 0);
        assert_eq!(issued[0].epoch, 1);
        assert_eq!(issued[0].disabled, vec![1], "heaviest sensor goes dark");
        assert_eq!(c.stats().sensors_dark, 1);
    }

    #[test]
    fn under_half_budget_reenables_newest_first() {
        let mut c = Controller::new(cfg(0.001), 1, 2);
        for _ in 0..50 {
            c.observe_batch(0, &[record(0, 4000), record(1, 100)]);
        }
        c.decide(VirtualTime::from_millis(200), 1, &[], |_| false);
        assert_eq!(c.schedule().last().unwrap().disabled, vec![0]);
        // The action resets the rate base; once the directive takes
        // effect the newly covered batches are cheap, the measured rate
        // sinks under half the budget, and hysteresis re-enables the
        // sensor — newest first.
        for _ in 0..10 {
            c.observe_batch(0, &[record(1, 100)]);
        }
        c.decide(VirtualTime::from_millis(400), 2, &[], |_| false);
        let last = c.schedule().last().unwrap().clone();
        assert_eq!(last.epoch, 2);
        assert!(last.disabled.is_empty(), "hysteresis re-enables: {last:?}");
        assert_eq!(c.stats().sensors_dark, 0);
    }

    #[test]
    fn the_last_enabled_sensor_is_never_darkened() {
        let mut c = Controller::new(cfg(0.001), 1, 1);
        for _ in 0..100 {
            c.observe_batch(0, &[record(0, 50_000)]);
        }
        c.decide(VirtualTime::from_millis(200), 1, &[], |_| false);
        assert!(c.schedule().is_empty(), "sole sensor must stay lit");
    }

    #[test]
    fn alert_span_escalates_only_covered_ranks_once() {
        let mut c = Controller::new(cfg(0.5), 4, 1);
        c.observe_batch(2, &[record(0, 1)]);
        c.decide(VirtualTime::from_millis(200), 1, &[(1, 2)], |_| false);
        let issued = c.schedule();
        assert_eq!(issued.len(), 2);
        assert!(issued.iter().all(|e| e.subdiv == 4 && e.epoch == 1));
        assert_eq!(
            issued.iter().map(|e| e.rank).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // The same span again is a no-op: escalation is one-way.
        c.decide(VirtualTime::from_millis(400), 2, &[(1, 2)], |_| false);
        assert_eq!(c.schedule().len(), 2);
        assert_eq!(c.stats().escalated_ranks, 2);
    }

    #[test]
    fn retry_backoff_is_charged_to_the_virtual_clock() {
        let mut c = Controller::new(cfg(0.5), 1, 1);
        c.decide(VirtualTime::from_millis(200), 1, &[(0, 0)], |_| false);
        let t = VirtualTime::from_millis(200);
        let (d, attempt) = c.begin_attempt(0, t).expect("pending and due");
        assert_eq!((d.epoch, attempt), (1, 1));
        c.delivery_lost(0);
        // Not due again until one `BACKOFF_BASE` later.
        assert!(c.begin_attempt(0, t).is_none());
        let retry_at = t + Duration::from_millis(2);
        let (_, attempt) = c.begin_attempt(0, retry_at).expect("retry due");
        assert_eq!(attempt, 2);
        c.ack(0, 1);
        assert!(c
            .begin_attempt(0, retry_at + Duration::from_secs(1))
            .is_none());
        let s = c.stats();
        assert_eq!((s.lost, s.acked, s.recovered), (1, 1, 1));
    }

    #[test]
    fn dead_rank_pending_is_cancelled_not_retried() {
        let mut c = Controller::new(cfg(0.5), 2, 1);
        c.decide(VirtualTime::from_millis(200), 1, &[(0, 1)], |_| false);
        assert!(c.begin_attempt(1, VirtualTime::from_millis(200)).is_some());
        // Rank 1 dies before acking: next pass cancels its directive.
        c.decide(VirtualTime::from_millis(400), 2, &[], |r| r == 1);
        assert!(
            c.begin_attempt(1, VirtualTime::from_secs(10)).is_none(),
            "never retried forever"
        );
        assert_eq!(c.stats().cancelled_dead, 1);
        // And the dead rank never gets a new epoch.
        c.decide(VirtualTime::from_millis(600), 3, &[(1, 1)], |r| r == 1);
        assert!(c.schedule().iter().all(|e| e.rank != 1 || e.pass == 1));
    }

    #[test]
    fn superseding_an_unacked_directive_is_counted() {
        let mut c = Controller::new(cfg(0.001), 1, 3);
        for _ in 0..50 {
            c.observe_batch(0, &[record(0, 4000), record(1, 3000), record(2, 10)]);
        }
        c.decide(VirtualTime::from_millis(200), 1, &[], |_| false);
        for _ in 0..50 {
            c.observe_batch(0, &[record(1, 3000), record(2, 10)]);
        }
        // Still over budget, nothing acked: epoch 2 supersedes epoch 1.
        c.decide(VirtualTime::from_millis(400), 2, &[], |_| false);
        assert_eq!(c.stats().epochs_issued, 2);
        assert_eq!(c.stats().superseded, 1);
        let (d, _) = c.begin_attempt(0, VirtualTime::from_millis(400)).unwrap();
        assert_eq!(d.epoch, 2, "only the newest epoch is ever delivered");
    }

    #[test]
    fn fingerprint_ignores_delivery_bookkeeping() {
        let mut a = Controller::new(cfg(0.5), 2, 1);
        a.decide(VirtualTime::from_millis(200), 1, &[(0, 1)], |_| false);
        let mut b = a.clone();
        // Different delivery histories, same decisions.
        let _ = b.begin_attempt(0, VirtualTime::from_millis(200));
        b.delivery_lost(0);
        b.ack(1, 1);
        let fp = |c: &Controller| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            c.fold_fingerprint(|v| {
                h ^= v;
                h = h.wrapping_mul(0x1000_0000_01b3);
            });
            h
        };
        assert_eq!(fp(&a), fp(&b));
    }
}
