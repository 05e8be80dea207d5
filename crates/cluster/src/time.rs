//! Virtual time.
//!
//! Everything in the simulator runs on a virtual nanosecond timeline: rank
//! clocks, message arrivals, noise windows, sensor timestamps. Using
//! integers keeps arithmetic exact and results bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the virtual timeline, in nanoseconds since program start.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl VirtualTime {
    /// Time zero.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Nanoseconds since start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start, as a float (for display/plots).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        VirtualTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        VirtualTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub fn from_secs(s: u64) -> Self {
        VirtualTime(s * 1_000_000_000)
    }

    /// Duration since `earlier`; saturates to zero if `earlier` is later.
    pub fn since(self, earlier: VirtualTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (truncated).
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Scale by a float factor (rounds to nanoseconds).
    pub fn mul_f64(self, factor: f64) -> Self {
        Duration(round_to_u64(self.0 as f64 * factor))
    }
}

/// `f64::round`, clamped at zero and cast saturating to `u64` — bit for
/// bit, in integer arithmetic: round half away from zero, negatives and
/// NaN to 0, saturating at `u64::MAX`.
///
/// Every float → nanosecond conversion on the virtual-time path goes
/// through here. `f64::round` is a libm call on baseline x86-64 (no
/// `roundsd` before SSE4.1), and a build flag that inlined it would make
/// virtual times depend on target features; the cast-and-compare form is
/// exact on every target. Why it is exact: the saturating cast truncates,
/// so for `0 <= x < 2^53` `t` is `floor(x)` and `x - t` is the fractional
/// part, computed without rounding error; from `2^53` up `x` is an integer
/// and the difference is 0 (or `x` is beyond `u64` and `t` saturated).
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

/// `f64::ceil` cast saturating to `u64`, by the same truncate-and-compare
/// argument as [`round_to_u64`] (one call per simulated `send`, for the
/// transfer time).
#[inline]
pub fn ceil_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x > t as f64) as u64)
}

/// A work-conserving virtual clock for a server-side worker.
///
/// Rank clocks advance as ranks execute; a server worker instead models a
/// queueing station: each piece of work *arriving* at virtual time `t` and
/// costing `c` starts at `max(t, clock)` and finishes at `max(t, clock) + c`.
/// The clock tracks the finish time, and total busy time accumulates
/// separately so utilization can be read against wall (virtual) time.
///
/// A plain value: the analysis engine keeps its clocks inside the state its
/// one lock guards, so charging takes `&mut self` and a checkpoint copies
/// the clock with everything else. It is observational only — it never
/// feeds back into rank timing, so charging cannot perturb a run's results.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusyClock {
    /// Virtual instant at which the worker drains its queue.
    free_at: VirtualTime,
    /// Total virtual time spent busy.
    busy: Duration,
}

impl BusyClock {
    /// A clock that has never been busy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `cost` of work arriving at `arrival`; returns the virtual
    /// completion time.
    pub fn charge(&mut self, arrival: VirtualTime, cost: Duration) -> VirtualTime {
        self.busy += cost;
        self.free_at = self.free_at.max(arrival) + cost;
        self.free_at
    }

    /// Virtual instant at which all charged work is done.
    pub fn free_at(&self) -> VirtualTime {
        self.free_at
    }

    /// Total virtual time spent processing.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }
}

impl Add<Duration> for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: Duration) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for VirtualTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = Duration;
    fn sub(self, rhs: VirtualTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 10_000 {
            write!(f, "{ns}ns")
        } else if ns < 10_000_000 {
            write!(f, "{:.1}us", ns as f64 / 1e3)
        } else if ns < 10_000_000_000 {
            write!(f, "{:.1}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.2}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_exact() {
        let t = VirtualTime::from_millis(5) + Duration::from_micros(3);
        assert_eq!(t.as_nanos(), 5_003_000);
        assert_eq!((t - VirtualTime::from_millis(5)).as_nanos(), 3_000);
    }

    #[test]
    fn since_saturates() {
        let a = VirtualTime::from_secs(1);
        let b = VirtualTime::from_secs(2);
        assert_eq!(a.since(b), Duration::ZERO);
        assert_eq!(b.since(a), Duration::from_secs(1));
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        assert_eq!(Duration::from_nanos(10).mul_f64(1.26).as_nanos(), 13);
        assert_eq!(Duration::from_nanos(10).mul_f64(-1.0).as_nanos(), 0);
    }

    /// The spellings the helpers replaced on the virtual-time path.
    fn assert_is_f64_round(x: f64) {
        let got = round_to_u64(x);
        assert_eq!(
            got,
            x.round().max(0.0) as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
        assert_eq!(got, x.round() as u64, "x = {x:e} ({:#x})", x.to_bits());
        assert_eq!(
            ceil_to_u64(x),
            x.ceil() as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_to_u64_is_f64_round_on_the_specials() {
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        for x in [
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -0.5,
            -1.5,
            -1e9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            p52 - 0.5,
            p52,
            p53 - 1.0,
            p53,
            9223372036854775808.0,  // 2^63
            18446744073709551616.0, // 2^64
            1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
        ] {
            assert_is_f64_round(x);
        }
        assert_eq!(round_to_u64(2.5), 3, "half away from zero, not to even");
        assert_eq!(round_to_u64(0.49999999999999994), 0);
        assert_eq!(round_to_u64(p52 - 0.5), 1 << 52);
        assert_eq!(round_to_u64(f64::NAN), 0);
        assert_eq!(round_to_u64(1e300), u64::MAX);
    }

    #[test]
    fn round_to_u64_is_f64_round_on_seeded_values() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::noise::mix64(state)
        };
        for _ in 0..300_000 {
            // Any bit pattern: every exponent, both signs, NaNs, subnormals.
            assert_is_f64_round(f64::from_bits(next()));
            // The shapes the cost models produce: binary fractions, exact
            // halves, and quotients that are not representable.
            let k = next() >> (next() % 64);
            assert_is_f64_round(k as f64 / 1024.0);
            assert_is_f64_round(k as f64 + 0.5);
            assert_is_f64_round(k as f64 / 3.0);
        }
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(Duration::from_nanos(123).to_string(), "123ns");
        assert_eq!(Duration::from_micros(120).to_string(), "120.0us");
        assert_eq!(Duration::from_millis(15).to_string(), "15.0ms");
        assert_eq!(Duration::from_secs(80).to_string(), "80.00s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].into_iter().map(Duration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 6);
    }

    #[test]
    fn busy_clock_queues_back_to_back_work() {
        let mut c = BusyClock::new();
        // Work arrives at t=10 costing 5: runs 10..15.
        let done = c.charge(VirtualTime(10), Duration(5));
        assert_eq!(done, VirtualTime(15));
        // Work arrives at t=12 while busy: queued, runs 15..20.
        let done = c.charge(VirtualTime(12), Duration(5));
        assert_eq!(done, VirtualTime(20));
        // Work arrives after the queue drains: idle gap, runs 100..101.
        let done = c.charge(VirtualTime(100), Duration(1));
        assert_eq!(done, VirtualTime(101));
        assert_eq!(c.busy_time(), Duration(11));
        assert_eq!(c.free_at(), VirtualTime(101));
    }
}
