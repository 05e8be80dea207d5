//! What every workload shares: the run's options, the result it fills in,
//! seeds and fingerprints, and the process's peak memory.

use crate::catalog;
use crate::sampler::{self, Summary};
use crate::spans::Span;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Options of one workload run.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub workload: &'static str,
    /// Feeds the generator's jitter, every `FaultPlan` seed and the
    /// clusters' noise seed. The product only ever sees generated inputs.
    pub seed: u64,
    /// `--seconds`: how long the timed repetitions may take in total.
    pub budget: Duration,
    /// `--trace 1`: also run traced repetitions and report layer metrics.
    pub traced: bool,
}

impl Ctx {
    /// Budget and repetition floor of the untraced repetitions. A traced
    /// run splits the budget between its untraced and traced halves.
    pub fn untraced_plan(&self) -> (Duration, usize) {
        if self.traced {
            (self.budget / 2, 2)
        } else {
            (self.budget, 3)
        }
    }

    pub fn traced_plan(&self) -> (Duration, usize) {
        (self.budget / 2, 2)
    }

    /// A seed for one named use, so two uses never share a stream.
    pub fn seed_for(&self, purpose: &str) -> u64 {
        let mut h = Fingerprint::default();
        h.add(&self.seed);
        h.add(purpose);
        h.finish()
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed repetitions (programs compiled,
    /// batches handed to a transport) plus one per correctness check.
    pub attempted: u64,
    /// Of those, the ones that failed *unexpectedly*.
    pub failed: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Metric values by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Distributions behind the medians, for the human-readable table.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Free-form lines for the table (ledger answers, caveats).
    pub notes: Vec<String>,
    /// Spans of the last traced repetition, written out at exit.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        catalog::metric(name);
        assert!(value.is_finite(), "{name} = {value}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A timing metric reported as the median of `samples`, which are kept
    /// for the table.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(summary) = sampler::summarize(samples) {
            self.summaries.push((name, summary));
            self.set(name, summary.median);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Count `ops` attempted operations of which `failed` failed.
    pub fn count(&mut self, ops: u64, failed: u64, what: &str) {
        self.attempted += ops;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(format!("{failed} of {ops} {what}"));
        }
    }

    /// One correctness check: counts as an attempted operation, and as a
    /// failed one when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Fill in what is derived from the rest, once the workload is done.
    pub fn finish(&mut self, traced: bool) {
        self.set(
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        if !traced {
            self.set("peak_rss_mb", peak_rss_mb());
        }
    }
}

/// Deterministic fingerprint (SipHash with the standard library's fixed
/// keys): repetitions of one run must agree on it bit for bit.
#[derive(Default)]
pub struct Fingerprint(std::collections::hash_map::DefaultHasher);

impl Fingerprint {
    pub fn add<T: Hash + ?Sized>(&mut self, value: &T) {
        value.hash(&mut self.0);
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// SplitMix64's output function: the generator's only source of
/// randomness, a pure function of its key.
pub fn splitmix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `VmHWM` of this process in MiB: the peak resident set since it started.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_checks_and_failures() {
        let mut out = Outcome::default();
        out.count(100, 0, "batches undelivered");
        out.check(true, || unreachable!());
        out.check(false, || "repetitions differ".into());
        out.count(10, 2, "programs failed to recompile");
        out.finish(true);
        assert_eq!((out.attempted, out.failed), (112, 3));
        assert_eq!(out.failures.len(), 2);
        assert!((out.get("failed_share") - 3.0 / 112.0).abs() < 1e-12);
        assert_eq!(out.get("peak_rss_mb"), 0.0, "traced runs do not report it");
    }

    #[test]
    fn seeds_and_fingerprints_are_deterministic() {
        let ctx = |seed| Ctx {
            workload: catalog::TELE_STEADY,
            seed,
            budget: Duration::ZERO,
            traced: false,
        };
        assert_eq!(ctx(7).seed_for("jitter"), ctx(7).seed_for("jitter"));
        assert_ne!(ctx(7).seed_for("jitter"), ctx(8).seed_for("jitter"));
        assert_ne!(ctx(7).seed_for("jitter"), ctx(7).seed_for("faults"));
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
