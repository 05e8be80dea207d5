//! System-noise and injected-slowdown models.
//!
//! The paper distinguishes *system noise* — high-frequency, short-duration
//! interruptions from the OS kernel, treated as a system characteristic —
//! from *performance variance* — durable, repairable degradation (bad node,
//! noiser process, network problem). Both are modelled here as a
//! piecewise-constant slowdown factor over virtual time:
//!
//! * periodic OS ticks: every `period`, computation is paused for `pause`
//!   (modelled as an infinite slowdown over a short window, i.e. time
//!   passes but no work retires);
//! * random daemon wakeups: Bernoulli-per-period bursts with a random
//!   offset, deterministic per (node, seed);
//! * injected windows ([`SlowdownWindow`]): an explicit `[start, end)`
//!   interval during which work on selected nodes runs `factor`× slower —
//!   this is the "noiser" co-runner of §6.4.
//!
//! [`NoiseModel::stretch`] converts a noise-free duration into a noisy one
//! by integrating the factor curve segment by segment — exact, not sampled.

use crate::time::{round_to_u64, Duration, VirtualTime};

/// A single injected slowdown window on a set of nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowdownWindow {
    /// Start of the window (inclusive).
    pub start: VirtualTime,
    /// End of the window (exclusive).
    pub end: VirtualTime,
    /// Work runs this many times slower inside the window (must be ≥ 1).
    pub factor: f64,
    /// Node IDs affected; empty means every node.
    pub nodes: Vec<usize>,
}

impl SlowdownWindow {
    /// Window hitting every node.
    pub fn global(start: VirtualTime, end: VirtualTime, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be >= 1");
        assert!(end > start, "window must be non-empty");
        SlowdownWindow {
            start,
            end,
            factor,
            nodes: Vec::new(),
        }
    }

    /// Window hitting specific nodes.
    pub fn on_nodes(start: VirtualTime, end: VirtualTime, factor: f64, nodes: Vec<usize>) -> Self {
        let mut w = Self::global(start, end, factor);
        w.nodes = nodes;
        w
    }

    fn applies_to(&self, node: usize) -> bool {
        self.nodes.is_empty() || self.nodes.contains(&node)
    }
}

/// Configuration for background OS noise on every node.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseConfig {
    /// OS tick period (0 disables periodic ticks).
    pub tick_period: Duration,
    /// Fraction of each tick period stolen by the kernel, `[0, 0.5]`.
    pub tick_fraction: f64,
    /// Amplitude of per-node random jitter applied multiplicatively to
    /// every computation, `[0, 1)`. 0.02 means ±2 %.
    pub jitter: f64,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            tick_period: Duration::from_micros(1000), // 1 kHz OS tick
            tick_fraction: 0.02,
            jitter: 0.02,
            seed: 0x5eed,
        }
    }
}

impl NoiseConfig {
    /// Completely quiet system (useful for unit tests and overhead
    /// measurements where determinism down to the nanosecond matters).
    pub fn quiet() -> Self {
        NoiseConfig {
            tick_period: Duration::ZERO,
            tick_fraction: 0.0,
            jitter: 0.0,
            seed: 0,
        }
    }
}

/// The full noise model: background config plus injected windows.
#[derive(Clone, Debug)]
pub struct NoiseModel {
    config: NoiseConfig,
    windows: Vec<SlowdownWindow>,
    /// Offset of each node's OS tick within the period — a constant of
    /// `(seed, node)`, so that ticks across nodes are not aligned (the
    /// paper cites unsynchronized interrupts as a noise source). Empty
    /// when periodic ticks are disabled.
    tick_phase: Vec<u64>,
}

impl NoiseModel {
    /// Build from a config and injected windows, for nodes `0..nodes`.
    pub fn new(config: NoiseConfig, windows: Vec<SlowdownWindow>, nodes: usize) -> Self {
        let period = config.tick_period.as_nanos();
        let tick_phase = if period > 0 {
            (0..nodes as u64)
                .map(|node| mix64(config.seed ^ 0xF1C4 ^ node) % period)
                .collect()
        } else {
            Vec::new()
        };
        NoiseModel {
            config,
            windows,
            tick_phase,
        }
    }

    /// The injected windows.
    pub fn windows(&self) -> &[SlowdownWindow] {
        &self.windows
    }

    /// Stretch a noise-free duration `base` starting at `start` on `node`
    /// into the actual elapsed virtual time, integrating all slowdown
    /// sources. `sample_key` decorrelates the random jitter between
    /// otherwise identical computations.
    pub fn stretch(
        &self,
        node: usize,
        start: VirtualTime,
        base: Duration,
        sample_key: u64,
    ) -> Duration {
        if base == Duration::ZERO {
            return base;
        }
        // 1. Multiplicative jitter: deterministic hash of (node, key, seed).
        let mut remaining = if self.config.jitter > 0.0 {
            let h = mix64(
                self.config.seed ^ (node as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ sample_key,
            );
            // uniform in [-jitter, +jitter]
            let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            base.mul_f64(1.0 + self.config.jitter * (2.0 * u - 1.0))
        } else {
            base
        };

        // 2. Periodic tick steal: apply as an average slowdown when the
        // duration spans many periods, or as explicit overlap when short.
        if self.config.tick_period > Duration::ZERO && self.config.tick_fraction > 0.0 {
            remaining = self.apply_ticks(start, remaining, node);
        }

        // 3. Injected windows: walk segment boundaries exactly.
        self.apply_windows(node, start, remaining)
    }

    /// Apply the periodic tick model. Work `d` starting at `t` is stretched
    /// so that during each `tick_fraction` slice of a period no work
    /// retires. The phase of the tick is deterministic per node.
    fn apply_ticks(&self, start: VirtualTime, d: Duration, node: usize) -> Duration {
        let period = self.config.tick_period.as_nanos();
        let pause = (period as f64 * self.config.tick_fraction) as u64;
        if pause == 0 {
            return d;
        }
        let mut t = start.as_nanos() + self.tick_phase[node];
        let mut work_left = d.as_nanos();
        let mut elapsed = 0u64;
        // Cap segment walking; beyond the cap, amortize analytically.
        const MAX_SEGMENTS: u32 = 4096;
        let mut segments = 0;
        while work_left > 0 {
            segments += 1;
            if segments > MAX_SEGMENTS {
                // Average stretch for the remainder.
                let run = (period - pause) as f64 / period as f64;
                elapsed += round_to_u64(work_left as f64 / run);
                break;
            }
            let in_period = t % period;
            if in_period < pause {
                // Inside the stolen slice: time passes, no work retires.
                let wait = pause - in_period;
                elapsed += wait;
                t += wait;
            } else {
                // Run until the next tick or until work completes.
                let until_tick = period - in_period;
                let run = work_left.min(until_tick);
                elapsed += run;
                t += run;
                work_left -= run;
            }
        }
        Duration::from_nanos(elapsed)
    }

    /// Apply injected windows by walking factor-change boundaries.
    fn apply_windows(&self, node: usize, start: VirtualTime, d: Duration) -> Duration {
        if self.windows.is_empty() {
            return d;
        }
        let mut t = start.as_nanos();
        let mut work_left = d.as_nanos();
        let mut elapsed = 0u64;
        while work_left > 0 {
            // Current combined factor and the next boundary where any
            // window's state changes.
            let mut factor = 1.0f64;
            let mut next_change = u64::MAX;
            for w in &self.windows {
                if !w.applies_to(node) {
                    continue;
                }
                let (ws, we) = (w.start.as_nanos(), w.end.as_nanos());
                if t >= ws && t < we {
                    factor *= w.factor;
                    next_change = next_change.min(we);
                } else if t < ws {
                    next_change = next_change.min(ws);
                }
            }
            if next_change == u64::MAX {
                // No more changes ahead: finish at the current factor.
                elapsed += round_to_u64(work_left as f64 * factor);
                break;
            }
            let wall_until_change = next_change - t;
            // Work that fits before the boundary at this factor.
            let work_fits = (wall_until_change as f64 / factor) as u64;
            if work_fits >= work_left {
                elapsed += round_to_u64(work_left as f64 * factor);
                break;
            }
            // Consume up to the boundary.
            let consumed = work_fits.max(1); // guarantee progress
            elapsed += round_to_u64(consumed as f64 * factor);
            work_left -= consumed.min(work_left);
            t = next_change.max(t + 1);
        }
        Duration::from_nanos(elapsed)
    }
}

/// SplitMix64 finalizer — cheap deterministic hash for jitter.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_model_with(windows: Vec<SlowdownWindow>) -> NoiseModel {
        NoiseModel::new(NoiseConfig::quiet(), windows, 8)
    }

    #[test]
    fn quiet_model_is_identity() {
        let m = quiet_model_with(vec![]);
        let d = Duration::from_micros(50);
        assert_eq!(m.stretch(0, VirtualTime::ZERO, d, 1), d);
    }

    #[test]
    fn window_fully_covering_slows_by_factor() {
        let m = quiet_model_with(vec![SlowdownWindow::global(
            VirtualTime::ZERO,
            VirtualTime::from_secs(100),
            3.0,
        )]);
        let d = Duration::from_micros(10);
        let out = m.stretch(0, VirtualTime::from_secs(1), d, 0);
        assert_eq!(out.as_nanos(), 30_000);
    }

    #[test]
    fn window_only_applies_to_its_nodes() {
        let m = quiet_model_with(vec![SlowdownWindow::on_nodes(
            VirtualTime::ZERO,
            VirtualTime::from_secs(100),
            2.0,
            vec![5],
        )]);
        let d = Duration::from_micros(10);
        assert_eq!(
            m.stretch(5, VirtualTime::from_secs(1), d, 0).as_nanos(),
            20_000
        );
        assert_eq!(
            m.stretch(4, VirtualTime::from_secs(1), d, 0).as_nanos(),
            10_000
        );
    }

    #[test]
    fn straddling_a_window_boundary_is_partial() {
        // Window [0, 10us) factor 2; work of 10us starting at 5us: first
        // 2.5us of work takes 5us (until boundary), the rest runs at 1x.
        let m = quiet_model_with(vec![SlowdownWindow::global(
            VirtualTime::ZERO,
            VirtualTime::from_micros(10),
            2.0,
        )]);
        let out = m.stretch(0, VirtualTime::from_micros(5), Duration::from_micros(10), 0);
        assert_eq!(out.as_micros(), 12); // 5us slowed (2.5us work) + 7.5us normal
    }

    #[test]
    fn work_before_window_is_untouched() {
        let m = quiet_model_with(vec![SlowdownWindow::global(
            VirtualTime::from_secs(10),
            VirtualTime::from_secs(20),
            5.0,
        )]);
        let d = Duration::from_micros(100);
        assert_eq!(m.stretch(0, VirtualTime::ZERO, d, 0), d);
    }

    #[test]
    fn work_reaching_into_future_window_gets_stretched() {
        // Start 1us before a window; 10us of work: 1us free, 9us at 4x.
        let m = quiet_model_with(vec![SlowdownWindow::global(
            VirtualTime::from_micros(1),
            VirtualTime::from_secs(1),
            4.0,
        )]);
        let out = m.stretch(0, VirtualTime::ZERO, Duration::from_micros(10), 0);
        assert_eq!(out.as_micros(), 1 + 36);
    }

    #[test]
    fn ticks_steal_time_deterministically() {
        let cfg = NoiseConfig {
            tick_period: Duration::from_micros(100),
            tick_fraction: 0.10,
            jitter: 0.0,
            seed: 42,
        };
        let m = NoiseModel::new(cfg, vec![], 1);
        let d = Duration::from_micros(1000); // 10 periods
        let a = m.stretch(0, VirtualTime::ZERO, d, 7);
        let b = m.stretch(0, VirtualTime::ZERO, d, 7);
        assert_eq!(a, b, "deterministic");
        // Roughly 10% inflation, allow wide bounds for phase effects.
        let inflation = a.as_nanos() as f64 / d.as_nanos() as f64;
        assert!(
            inflation > 1.05 && inflation < 1.20,
            "inflation {inflation}"
        );
    }

    /// The table holds, for every node, what `apply_ticks` used to
    /// recompute on each call.
    #[test]
    fn precomputed_tick_phase_is_the_per_call_expression() {
        for seed in [0x5eed, 7, u64::MAX] {
            let cfg = NoiseConfig {
                seed,
                ..NoiseConfig::default()
            };
            let period = cfg.tick_period.as_nanos();
            let m = NoiseModel::new(cfg, vec![], 1024);
            assert_eq!(m.tick_phase.len(), 1024);
            for node in 0..1024usize {
                assert_eq!(
                    m.tick_phase[node],
                    mix64(seed ^ 0xF1C4 ^ node as u64) % period,
                    "seed {seed:#x} node {node}"
                );
            }
        }
        assert!(quiet_model_with(vec![]).tick_phase.is_empty());
    }

    #[test]
    fn jitter_is_bounded_and_keyed() {
        let cfg = NoiseConfig {
            tick_period: Duration::ZERO,
            tick_fraction: 0.0,
            jitter: 0.05,
            seed: 1,
        };
        let m = NoiseModel::new(cfg, vec![], 1);
        let d = Duration::from_micros(100);
        let mut distinct = std::collections::HashSet::new();
        for key in 0..32 {
            let out = m.stretch(0, VirtualTime::ZERO, d, key);
            let ratio = out.as_nanos() as f64 / d.as_nanos() as f64;
            assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
            distinct.insert(out.as_nanos());
        }
        assert!(distinct.len() > 10, "keys should decorrelate samples");
    }

    #[test]
    fn zero_duration_stays_zero() {
        let m = NoiseModel::new(NoiseConfig::default(), vec![], 1);
        assert_eq!(
            m.stretch(0, VirtualTime::ZERO, Duration::ZERO, 0),
            Duration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn speedup_window_rejected() {
        let _ = SlowdownWindow::global(VirtualTime::ZERO, VirtualTime::from_secs(1), 0.5);
    }

    #[test]
    fn zero_length_window_rejected() {
        // A [t, t) window would create zero-length segments in the walk.
        let r = std::panic::catch_unwind(|| {
            SlowdownWindow::global(VirtualTime::from_secs(1), VirtualTime::from_secs(1), 2.0)
        });
        assert!(r.is_err(), "empty window must be rejected");
    }

    #[test]
    fn work_ending_exactly_at_window_start_is_untouched() {
        // Window start is inclusive, so work whose last nanosecond lands
        // just before it must not be stretched at all.
        let m = quiet_model_with(vec![SlowdownWindow::global(
            VirtualTime::from_micros(10),
            VirtualTime::from_secs(1),
            5.0,
        )]);
        let d = Duration::from_micros(10);
        assert_eq!(m.stretch(0, VirtualTime::ZERO, d, 0), d);
    }

    #[test]
    fn work_starting_exactly_at_window_end_is_untouched() {
        // Window end is exclusive: starting right on it sees factor 1.
        let m = quiet_model_with(vec![SlowdownWindow::global(
            VirtualTime::ZERO,
            VirtualTime::from_micros(10),
            5.0,
        )]);
        let d = Duration::from_micros(10);
        assert_eq!(m.stretch(0, VirtualTime::from_micros(10), d, 0), d);
    }

    #[test]
    fn adjacent_windows_chain_without_gap_or_overlap() {
        // [0,10us) at 2x then [10us,100us) at 3x. 15us of work from 0:
        //   5us of work -> 10us wall (2x), remaining 10us -> 30us wall (3x);
        // the handoff at exactly 10us must not leave a 1x gap or double-
        // apply either factor.
        let m = quiet_model_with(vec![
            SlowdownWindow::global(VirtualTime::ZERO, VirtualTime::from_micros(10), 2.0),
            SlowdownWindow::global(
                VirtualTime::from_micros(10),
                VirtualTime::from_micros(100),
                3.0,
            ),
        ]);
        let out = m.stretch(0, VirtualTime::ZERO, Duration::from_micros(15), 0);
        assert_eq!(out.as_micros(), 10 + 30);
    }

    #[test]
    fn tiny_remainder_at_boundary_still_terminates_with_progress() {
        // 1 ns of work starting exactly on a boundary where the fitting
        // work rounds to zero — the walk must make progress, not loop.
        let m = quiet_model_with(vec![SlowdownWindow::global(
            VirtualTime(1),
            VirtualTime(2),
            1000.0,
        )]);
        let out = m.stretch(0, VirtualTime::ZERO, Duration::from_nanos(1), 0);
        assert!(out.as_nanos() >= 1, "{out:?}");
    }

    #[test]
    fn node_scoped_window_stacks_with_global_only_on_members() {
        let m = quiet_model_with(vec![
            SlowdownWindow::global(VirtualTime::ZERO, VirtualTime::from_secs(1), 2.0),
            SlowdownWindow::on_nodes(VirtualTime::ZERO, VirtualTime::from_secs(1), 3.0, vec![3]),
        ]);
        let d = Duration::from_micros(1);
        assert_eq!(m.stretch(3, VirtualTime::ZERO, d, 0).as_nanos(), 6_000);
        assert_eq!(m.stretch(0, VirtualTime::ZERO, d, 0).as_nanos(), 2_000);
    }

    #[test]
    fn overlapping_windows_multiply() {
        let m = quiet_model_with(vec![
            SlowdownWindow::global(VirtualTime::ZERO, VirtualTime::from_secs(1), 2.0),
            SlowdownWindow::global(VirtualTime::ZERO, VirtualTime::from_secs(1), 3.0),
        ]);
        let out = m.stretch(0, VirtualTime::ZERO, Duration::from_micros(1), 0);
        assert_eq!(out.as_nanos(), 6_000);
    }
}
