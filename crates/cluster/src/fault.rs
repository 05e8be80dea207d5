//! Fault injection for the rank → analysis-server telemetry path.
//!
//! The analysis server of §5.4 is one more process on a large machine, and
//! on a large machine the path to it fails in mundane ways: messages are
//! dropped or duplicated by a congested fabric, delayed past timeouts,
//! corrupted in flight, and the server itself restarts or becomes
//! unreachable for whole windows. A variance detector that falls over when
//! its own telemetry degrades is useless exactly when it is needed most, so
//! the simulator models these faults explicitly.
//!
//! A [`FaultPlan`] is the telemetry-path sibling of [`crate::noise`]: where
//! the noise model perturbs *computation* on the virtual timeline, the
//! fault plan perturbs *telemetry delivery*. Every decision is a pure
//! function of `(seed, rank, seq, attempt)` hashed through the same
//! SplitMix64 finalizer the noise model uses, so runs reproduce exactly and
//! a retry of the same batch rolls new, independent dice.

use crate::noise::mix64;
use crate::time::{Duration, VirtualTime};
use crate::topology::Topology;

/// Virtual failure-detection latency: how long a surviving peer waits on
/// a dead rank before its receive or collective reports the death.
pub const DEATH_TIMEOUT: Duration = Duration::from_millis(1);

/// A window of virtual time during which the analysis server is down:
/// every send attempt fails immediately (connection refused), rather than
/// timing out silently like a dropped message.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct OutageWindow {
    /// Start of the outage (inclusive).
    pub start: VirtualTime,
    /// End of the outage (exclusive).
    pub end: VirtualTime,
}

impl OutageWindow {
    fn covers(&self, t: VirtualTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// Per-message fault probabilities. All rates are in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability a batch vanishes in flight (no delivery, no error — the
    /// sender only learns via ack timeout).
    pub drop_rate: f64,
    /// Probability a delivered batch arrives twice (fabric-level retry).
    pub duplicate_rate: f64,
    /// Probability a delivered batch is delayed by up to [`Self::max_delay`]
    /// — delayed batches overtake later ones, producing reordering.
    pub delay_rate: f64,
    /// Upper bound of the random extra delay.
    pub max_delay: Duration,
    /// Probability the payload is corrupted in flight; the server's CRC
    /// check rejects such batches, so like a drop the sender sees only a
    /// missing ack.
    pub corrupt_rate: f64,
    /// Seed for the deterministic per-message dice.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_millis(5),
            corrupt_rate: 0.0,
            seed: 0xFA_17,
        }
    }
}

/// A fail-stop death of a single rank: at `at` the rank halts — it charges
/// no further virtual work, sends nothing, and never recovers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankDeath {
    /// The world rank that dies.
    pub rank: usize,
    /// Virtual instant of the death.
    pub at: VirtualTime,
}

/// A fail-stop death of a whole node: every rank placed on `node` by the
/// cluster topology dies at `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeDeath {
    /// The node (topology index) that dies.
    pub node: usize,
    /// Virtual instant of the death.
    pub at: VirtualTime,
}

/// The fate the plan assigns to one transmission attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum SendFate {
    /// The batch reaches the server `copies` times, `delay` after the send
    /// instant. `corrupt` batches arrive with a damaged payload (the
    /// server's CRC check will reject them and no ack is produced).
    Delivered {
        /// Number of copies that arrive (≥ 1; 2 for a duplicated batch).
        copies: u32,
        /// Extra latency beyond the nominal path cost.
        delay: Duration,
        /// Whether the payload was damaged in flight.
        corrupt: bool,
    },
    /// The batch vanishes; the sender sees an ack timeout.
    Dropped,
    /// The server is down; the send fails immediately.
    Unreachable,
}

/// Deterministic fault plan for the telemetry path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    outages: Vec<OutageWindow>,
    rank_deaths: Vec<RankDeath>,
    node_deaths: Vec<NodeDeath>,
    server_crash: Option<VirtualTime>,
}

impl FaultPlan {
    /// A plan that never injects anything (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit per-message probabilities.
    pub fn new(config: FaultConfig) -> Self {
        assert!(
            [
                config.drop_rate,
                config.duplicate_rate,
                config.delay_rate,
                config.corrupt_rate
            ]
            .iter()
            .all(|r| (0.0..=1.0).contains(r)),
            "fault rates must be within [0, 1]"
        );
        FaultPlan {
            config,
            ..FaultPlan::default()
        }
    }

    /// A plan that only drops batches, at `drop_rate`.
    pub fn lossy(drop_rate: f64, seed: u64) -> Self {
        Self::new(FaultConfig {
            drop_rate,
            seed,
            ..FaultConfig::default()
        })
    }

    /// Add a server-outage window (builder style).
    pub fn with_outage(mut self, start: VirtualTime, end: VirtualTime) -> Self {
        assert!(end > start, "outage window must be non-empty");
        self.outages.push(OutageWindow { start, end });
        self
    }

    /// Kill a single rank at `at` (builder style). Fail-stop: the rank
    /// charges no work after `at` and never comes back.
    pub fn with_rank_death(mut self, rank: usize, at: VirtualTime) -> Self {
        self.rank_deaths.push(RankDeath { rank, at });
        self
    }

    /// Kill a whole node at `at` (builder style): every rank the topology
    /// places on `node` dies at that instant.
    pub fn with_node_death(mut self, node: usize, at: VirtualTime) -> Self {
        self.node_deaths.push(NodeDeath { node, at });
        self
    }

    /// Crash the analysis server at `at` (builder style). The server loses
    /// all in-memory engine state and is rebuilt from its write-ahead log;
    /// the run driver exercises the kill → recover path at this instant.
    pub fn with_server_crash(mut self, at: VirtualTime) -> Self {
        self.server_crash = Some(at);
        self
    }

    /// The per-message probabilities.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The scheduled server crash, if any.
    pub fn server_crash(&self) -> Option<VirtualTime> {
        self.server_crash
    }

    /// Earliest death instant of `rank` from single-rank events only.
    /// Node-level deaths need the topology; use [`Self::resolve_deaths`].
    pub(crate) fn death_of_rank(&self, rank: usize) -> Option<VirtualTime> {
        self.rank_deaths
            .iter()
            .filter(|d| d.rank == rank)
            .map(|d| d.at)
            .min()
    }

    /// Resolve every scheduled death against a topology: element `r` is the
    /// earliest instant rank `r` dies (rank-level events plus node-level
    /// events expanded over the node's rank range), or `None` if it
    /// survives the whole run.
    pub fn resolve_deaths(&self, topology: &Topology) -> Vec<Option<VirtualTime>> {
        let mut deaths: Vec<Option<VirtualTime>> = vec![None; topology.ranks()];
        let mut note = |rank: usize, at: VirtualTime| {
            if let Some(slot) = deaths.get_mut(rank) {
                *slot = Some(slot.map_or(at, |t: VirtualTime| t.min(at)));
            }
        };
        for d in &self.rank_deaths {
            note(d.rank, d.at);
        }
        for d in &self.node_deaths {
            if d.node < topology.node_count() {
                for rank in topology.ranks_on(d.node) {
                    note(rank, d.at);
                }
            }
        }
        deaths
    }

    /// Whether this plan can inject anything at all. An inactive plan lets
    /// callers skip the faulty path entirely.
    pub fn is_active(&self) -> bool {
        let c = &self.config;
        c.drop_rate > 0.0
            || c.duplicate_rate > 0.0
            || c.delay_rate > 0.0
            || c.corrupt_rate > 0.0
            || !self.outages.is_empty()
            || !self.rank_deaths.is_empty()
            || !self.node_deaths.is_empty()
            || self.server_crash.is_some()
    }

    /// Decide the fate of one transmission attempt. Deterministic in
    /// `(seed, rank, seq, attempt)`: the same attempt always meets the same
    /// fate, while a *retry* of the same batch rolls fresh dice.
    /// Precedence is fixed: a dead sender can deliver nothing
    /// (rank-level deaths only — node-level deaths are enforced by the
    /// simulator layer, which stops dead ranks from sending at all), then
    /// server outages, then the per-message dice.
    pub fn fate(&self, rank: usize, seq: u64, attempt: u32, at: VirtualTime) -> SendFate {
        if self.death_of_rank(rank).is_some_and(|d| at >= d) {
            return SendFate::Unreachable;
        }
        if self.outages.iter().any(|o| o.covers(at)) {
            return SendFate::Unreachable;
        }
        let roll = |purpose: u64| -> f64 {
            let h = mix64(
                self.config
                    .seed
                    .wrapping_add(purpose.wrapping_mul(0x9E3779B97F4A7C15))
                    ^ (rank as u64) << 40
                    ^ seq << 8
                    ^ attempt as u64,
            );
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        if roll(1) < self.config.drop_rate {
            return SendFate::Dropped;
        }
        let corrupt = roll(2) < self.config.corrupt_rate;
        let copies = if roll(3) < self.config.duplicate_rate {
            2
        } else {
            1
        };
        let mut delay = Duration::ZERO;
        if roll(4) < self.config.delay_rate {
            let span = self.config.max_delay.as_nanos();
            delay = Duration::from_nanos((roll(5) * span as f64) as u64);
        }
        SendFate::Delivered {
            copies,
            delay,
            corrupt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_delivers_everything_cleanly() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for seq in 0..100 {
            assert_eq!(
                p.fate(3, seq, 0, VirtualTime::from_secs(1)),
                SendFate::Delivered {
                    copies: 1,
                    delay: Duration::ZERO,
                    corrupt: false
                }
            );
        }
    }

    #[test]
    fn fate_is_deterministic_per_attempt() {
        let p = FaultPlan::lossy(0.5, 7);
        for seq in 0..50 {
            assert_eq!(
                p.fate(1, seq, 0, VirtualTime::ZERO),
                p.fate(1, seq, 0, VirtualTime::ZERO)
            );
        }
    }

    #[test]
    fn retries_roll_fresh_dice() {
        // With 50% loss, a batch whose first attempt drops usually gets
        // through within a few retries — the attempt number must perturb
        // the hash.
        let p = FaultPlan::lossy(0.5, 11);
        let mut saw_flip = false;
        for seq in 0..64u64 {
            let a = p.fate(0, seq, 0, VirtualTime::ZERO);
            let b = p.fate(0, seq, 1, VirtualTime::ZERO);
            if a != b {
                saw_flip = true;
                break;
            }
        }
        assert!(saw_flip, "attempt number must decorrelate fates");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let p = FaultPlan::lossy(0.3, 99);
        let drops = (0..2000u64)
            .filter(|&seq| p.fate(0, seq, 0, VirtualTime::ZERO) == SendFate::Dropped)
            .count();
        let rate = drops as f64 / 2000.0;
        assert!((0.25..0.35).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn outage_makes_server_unreachable_only_inside_window() {
        let p =
            FaultPlan::none().with_outage(VirtualTime::from_secs(10), VirtualTime::from_secs(20));
        assert!(p.is_active());
        assert_eq!(
            p.fate(0, 0, 0, VirtualTime::from_secs(15)),
            SendFate::Unreachable
        );
        assert!(matches!(
            p.fate(0, 0, 0, VirtualTime::from_secs(5)),
            SendFate::Delivered { .. }
        ));
        assert!(matches!(
            p.fate(0, 0, 0, VirtualTime::from_secs(20)),
            SendFate::Delivered { .. }
        ));
    }

    #[test]
    fn duplicates_and_corruption_occur_at_configured_rates() {
        let p = FaultPlan::new(FaultConfig {
            duplicate_rate: 0.2,
            corrupt_rate: 0.1,
            seed: 5,
            ..FaultConfig::default()
        });
        let mut dups = 0;
        let mut corrupts = 0;
        for seq in 0..2000u64 {
            if let SendFate::Delivered {
                copies, corrupt, ..
            } = p.fate(0, seq, 0, VirtualTime::ZERO)
            {
                dups += (copies == 2) as u32;
                corrupts += corrupt as u32;
            }
        }
        assert!((300..500).contains(&dups), "duplicates {dups}");
        assert!((130..270).contains(&corrupts), "corruptions {corrupts}");
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_rate_rejected() {
        let _ = FaultPlan::lossy(1.5, 0);
    }

    #[test]
    fn deaths_and_server_crash_activate_the_plan() {
        assert!(FaultPlan::none()
            .with_rank_death(3, VirtualTime::from_secs(1))
            .is_active());
        assert!(FaultPlan::none()
            .with_node_death(0, VirtualTime::from_secs(1))
            .is_active());
        assert!(FaultPlan::none()
            .with_server_crash(VirtualTime::from_secs(1))
            .is_active());
    }

    #[test]
    fn node_death_resolves_to_all_ranks_on_the_node() {
        let topo = Topology::block(8, 2); // nodes {0,1} {2,3} {4,5} {6,7}
        let p = FaultPlan::none()
            .with_node_death(1, VirtualTime::from_secs(5))
            .with_rank_death(3, VirtualTime::from_secs(2))
            .with_rank_death(7, VirtualTime::from_secs(9));
        let deaths = p.resolve_deaths(&topo);
        assert_eq!(deaths[0], None);
        assert_eq!(deaths[2], Some(VirtualTime::from_secs(5)));
        // Rank 3 has both a node death (5s) and an earlier rank death (2s).
        assert_eq!(deaths[3], Some(VirtualTime::from_secs(2)));
        assert_eq!(deaths[6], None);
        assert_eq!(deaths[7], Some(VirtualTime::from_secs(9)));
    }

    #[test]
    fn out_of_range_node_death_is_ignored() {
        let topo = Topology::block(4, 2);
        let p = FaultPlan::none().with_node_death(9, VirtualTime::from_secs(1));
        assert!(p.resolve_deaths(&topo).iter().all(Option::is_none));
    }

    #[test]
    fn dead_rank_sends_become_unreachable() {
        let p = FaultPlan::none().with_rank_death(2, VirtualTime::from_secs(3));
        assert!(matches!(
            p.fate(2, 0, 0, VirtualTime::from_secs(2)),
            SendFate::Delivered { .. }
        ));
        assert_eq!(
            p.fate(2, 0, 0, VirtualTime::from_secs(3)),
            SendFate::Unreachable
        );
        // Other ranks are unaffected.
        assert!(matches!(
            p.fate(1, 0, 0, VirtualTime::from_secs(9)),
            SendFate::Delivered { .. }
        ));
    }
}
